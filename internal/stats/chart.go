package stats

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve of a Chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart renders XY series as an ASCII line chart — the terminal counterpart
// of the paper's figures. Points are plotted with per-series marks and a
// legend; axes are linear.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Width and Height are the plot area in character cells (default 60×16).
	Width, Height int
}

var chartMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '=', '~'}

// String renders the chart.
func (c *Chart) String() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 16
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range c.Series {
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			points++
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "## %s\n", c.Title)
	}
	if points == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	// Zero-based y axis reads better for speedups and ratios; keep the data
	// minimum only if it is negative.
	if minY > 0 {
		minY = 0
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	plot := func(x, y float64, mark byte) {
		cx := int(math.Round((x - minX) / (maxX - minX) * float64(w-1)))
		cy := int(math.Round((y - minY) / (maxY - minY) * float64(h-1)))
		row := h - 1 - cy
		if row < 0 || row >= h || cx < 0 || cx >= w {
			return
		}
		grid[row][cx] = mark
	}
	for si, s := range c.Series {
		mark := chartMarks[si%len(chartMarks)]
		// Interpolate between consecutive points so curves read as lines.
		for i := 0; i+1 < len(s.X) && i+1 < len(s.Y); i++ {
			steps := 2 * w
			for k := 0; k <= steps; k++ {
				f := float64(k) / float64(steps)
				plot(s.X[i]+float64((s.X[i+1]-s.X[i])*f), s.Y[i]+float64((s.Y[i+1]-s.Y[i])*f), mark)
			}
		}
		for i := range s.X {
			if i < len(s.Y) {
				plot(s.X[i], s.Y[i], mark)
			}
		}
	}

	yFmtWidth := len(F(maxY, 1))
	if l := len(F(minY, 1)); l > yFmtWidth {
		yFmtWidth = l
	}
	for i, row := range grid {
		label := strings.Repeat(" ", yFmtWidth)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", yFmtWidth, F(maxY, 1))
		case h - 1:
			label = fmt.Sprintf("%*s", yFmtWidth, F(minY, 1))
		}
		fmt.Fprintf(&b, "%s |%s\n", label, strings.TrimRight(string(row), " "))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", yFmtWidth), strings.Repeat("-", w))
	lo := F(minX, 1)
	hi := F(maxX, 1)
	pad := w - len(lo) - len(hi)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s", strings.Repeat(" ", yFmtWidth), lo, strings.Repeat(" ", pad), hi)
	if c.XLabel != "" {
		fmt.Fprintf(&b, "  (%s)", c.XLabel)
	}
	b.WriteByte('\n')

	// Legend.
	var legend []string
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", chartMarks[si%len(chartMarks)], s.Name))
	}
	if c.YLabel != "" {
		legend = append(legend, "y: "+c.YLabel)
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "   %s\n", strings.Join(legend, "   "))
	}
	return b.String()
}
