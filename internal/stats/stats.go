// Package stats provides the small descriptive-statistics and text-table
// helpers the experiment harness uses to print paper-style tables and
// series.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Sum  float64
}

// Summarize computes min/max/mean/sum of xs (zero Summary for empty input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	return s
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation; NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Table is a simple text table with a caption, printed with aligned columns.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format writes the table to w with padded columns.
func (t *Table) Format(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	if t.Caption != "" {
		fmt.Fprintf(w, "## %s\n", t.Caption)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Format(&b)
	return b.String()
}

func pad(s string, w int) string {
	n := w - len([]rune(s))
	if n <= 0 {
		return s
	}
	return s + strings.Repeat(" ", n)
}

// F formats a float compactly for table cells: fixed precision with
// trailing-zero trimming.
func F(v float64, prec int) string {
	s := fmt.Sprintf("%.*f", prec, v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}

// Pct formats a fraction as a percentage cell, e.g. 0.347 → "34.7%".
func Pct(v float64) string {
	return F(v*100, 1) + "%"
}
