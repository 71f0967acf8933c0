package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 4, 1, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Sum != 14 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-2.8) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	// Input must not be mutated (sorted copy).
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{Caption: "demo", Header: []string{"name", "value"}}
	tab.AddRow("a", "1")
	tab.AddRow("longer-name", "22")
	out := tab.String()
	if !strings.Contains(out, "## demo") {
		t.Error("caption missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // caption, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns must align: "value" column starts at the same offset in all rows.
	idx := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[4][idx:], "22") {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestF(t *testing.T) {
	cases := []struct {
		v    float64
		prec int
		want string
	}{
		{1.5, 2, "1.5"},
		{1.0, 3, "1"},
		{0.125, 2, "0.12"}, // %f rounds half to even
		{-2.50, 1, "-2.5"},
		{100, 0, "100"},
	}
	for _, c := range cases {
		if got := F(c.v, c.prec); got != c.want {
			t.Errorf("F(%v, %d) = %q, want %q", c.v, c.prec, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.347); got != "34.7%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(3); got != "300%" {
		t.Errorf("Pct = %q", got)
	}
}
