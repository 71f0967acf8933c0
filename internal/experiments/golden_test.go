package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// goldenOpt is the scale of the figure goldens: the smallest at which every
// scene still builds, so the seven sweeps stay a few seconds together.
var goldenOpt = Options{Scale: 0.1}

// TestReportGoldens pins reports at smoke scale to output generated before
// their runner was last rewritten: the dynamic tile queue and sort-last
// CSVs by the hand-written machine loops that the one frame path replaced,
// and the paper's figures (CSV and text, charts included) by the hand-rolled
// runners that the sweep specs replaced. No report may move by a byte.
func TestReportGoldens(t *testing.T) {
	for _, c := range []struct {
		id   string
		opt  Options
		text bool // also pin Format's output in testdata/<id>.txt
	}{
		{"ext-dynamic", smokeOpt, false},
		{"ext-sortlast", smokeOpt, false},
		{"fig5-imbalance", goldenOpt, true},
		{"fig5-speedup", goldenOpt, true},
		{"fig6-locality", goldenOpt, true},
		{"fig7", goldenOpt, true},
		{"fig7-bus2", goldenOpt, true},
		{"fig8-buffer", goldenOpt, true},
		{"ext-interleave", goldenOpt, true},
	} {
		e, ok := ByID(c.id)
		if !ok {
			t.Fatalf("unknown experiment %q", c.id)
		}
		rep, err := e.Run(context.Background(), c.opt)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := rep.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.id+".csv", csv.Bytes())
		if c.text {
			var text bytes.Buffer
			rep.Format(&text)
			checkGolden(t, c.id+".txt", text.Bytes())
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
