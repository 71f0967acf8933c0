package sweep

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// fuzzRows is a checkpoint store that answers every row key with row and
// every baseline key with base, and drops every write.
type fuzzRows struct{ row, base []byte }

func (r fuzzRows) Get(key string) ([]byte, bool) {
	if strings.HasPrefix(key, "baseline:") {
		return r.base, true
	}
	return r.row, true
}

func (fuzzRows) Put(string, []byte) error { return nil }

// FuzzRowCheckpoint: a checkpoint store's bytes cross a trust boundary.
// A two-point sweep whose store answers every row key and every baseline
// key with fuzzed bytes must not fail or panic, and each row must be the
// clean run's row, unless the row bytes decode to a Row of that point's
// processors and size: the sweep restores that row as it is. A baseline
// entry that decodes with positive cycles stands in for the baseline's
// simulation, so a row that still runs divides those cycles by its own.
func FuzzRowCheckpoint(f *testing.F) {
	spec := Spec{Scene: "truc640", Scale: 0.1, Procs: []int{4}, Sizes: []int{8, 16}, Bus: 1}
	clean, err := RunWith(context.Background(), spec, RunOpts{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, row, base []byte) {
		res, err := RunWith(context.Background(), spec, RunOpts{Rows: fuzzRows{row, base}})
		if err != nil {
			t.Fatal(err)
		}
		var restored Row
		rowOK := json.Unmarshal(row, &restored) == nil
		var bc baselineCheckpoint
		baseOK := json.Unmarshal(base, &bc) == nil && bc.Cycles > 0
		for i, got := range res.Rows {
			want := clean.Rows[i]
			switch {
			case rowOK && restored.Procs == want.Procs && restored.Size == want.Size:
				want = restored
			case baseOK:
				want.Speedup = bc.Cycles / want.Cycles
			}
			if got != want {
				t.Errorf("row %d: got %+v, want %+v", i, got, want)
			}
		}
	})
}
