package sweep

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// recordingSink captures the progress callbacks RunWith makes, so the test
// can check the hook contract without the real broker.
type recordingSink struct {
	mu       sync.Mutex
	started  map[int]string // row index -> config hash
	done     map[int]Row
	doneHash map[int]string
	total    int
}

func newRecordingSink() *recordingSink {
	return &recordingSink{
		started:  make(map[int]string),
		done:     make(map[int]Row),
		doneHash: make(map[int]string),
	}
}

func (r *recordingSink) RowStarted(index, total, procs, size int, configHash string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started[index] = configHash
	r.total = total
}

func (r *recordingSink) RowDone(index, total int, row Row, configHash string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[index] = row
	r.doneHash[index] = configHash
}

func TestRunWithProgressHooks(t *testing.T) {
	sink := newRecordingSink()
	res, err := RunWith(context.Background(), tinySpec, RunOpts{
		Parallelism: 2,
		Progress:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.total != len(res.Rows) {
		t.Fatalf("total = %d, want %d", sink.total, len(res.Rows))
	}
	if len(sink.started) != len(res.Rows) || len(sink.done) != len(res.Rows) {
		t.Fatalf("started/done = %d/%d callbacks, want one pair per row (%d)",
			len(sink.started), len(sink.done), len(res.Rows))
	}
	for i, want := range res.Rows {
		got, ok := sink.done[i]
		if !ok {
			t.Fatalf("row %d never reported done", i)
		}
		if got.Procs != want.Procs || got.Size != want.Size || got.Cycles != want.Cycles ||
			got.Frags != want.Frags {
			t.Fatalf("row %d callback = %+v, want the result row %+v", i, got, want)
		}
		if want.Frags == 0 {
			t.Fatalf("row %d has zero fragments; Frags must be populated", i)
		}
		if sink.started[i] == "" || sink.started[i] != sink.doneHash[i] {
			t.Fatalf("row %d hashes: started %q vs done %q — must match and be non-empty",
				i, sink.started[i], sink.doneHash[i])
		}
	}
}

func TestRowHashStableAndDistinct(t *testing.T) {
	h1 := tinySpec.RowHash(Row{Procs: 4, Size: 16})
	h2 := tinySpec.RowHash(Row{Procs: 4, Size: 16})
	if h1 == "" || h1 != h2 {
		t.Fatalf("RowHash not stable: %q vs %q", h1, h2)
	}
	if h3 := tinySpec.RowHash(Row{Procs: 1, Size: 16}); h3 == h1 {
		t.Fatal("different procs must hash differently")
	}
	if h4 := tinySpec.RowHash(Row{Procs: 4, Size: 8}); h4 == h1 {
		t.Fatal("different sizes must hash differently")
	}
	// The hash identifies the (procs, size) point, not the sweep's full
	// axis lists: a service job and a texsweep run with different axes but
	// the same point agree.
	narrow := tinySpec
	narrow.Procs = []int{4}
	narrow.Sizes = []int{16}
	if narrow.RowHash(Row{Procs: 4, Size: 16}) != h1 {
		t.Fatal("RowHash must be independent of the surrounding axis lists")
	}
}

func TestNilProgressSinkIsFree(t *testing.T) {
	// The zero-cost-when-off contract: a nil sink must not change results.
	withSink := newRecordingSink()
	a, err := RunWith(context.Background(), tinySpec, RunOpts{Progress: withSink})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(context.Background(), tinySpec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs with/without sink: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestCSVCarriesFrags(t *testing.T) {
	res, err := RunWith(context.Background(), tinySpec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res.Rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	header := strings.Split(lines[0], ",")
	col := -1
	for i, h := range header {
		if h == "frags" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("CSV header %v missing frags column", header)
	}
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		got, err := strconv.ParseUint(fields[col], 10, 64)
		if err != nil {
			t.Fatalf("row %d frags %q: %v", i, fields[col], err)
		}
		if got != res.Rows[i].Frags {
			t.Fatalf("row %d CSV frags = %d, want %d", i, got, res.Rows[i].Frags)
		}
	}
}
