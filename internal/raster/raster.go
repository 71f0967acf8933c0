// Package raster implements the scanline triangle rasterizer of the simulated
// texture-mapping engine. Triangles are scanned row by row; each row yields a
// half-open span of covered pixels. Pixel (x, y) is covered when its center
// (x+0.5, y+0.5) lies inside the triangle, with a top-left fill rule so that
// triangles sharing an edge never draw the same pixel twice.
//
// The simulator rasterizes each triangle once and demultiplexes the spans to
// the processors that own the pixels, exactly mirroring the paper's
// hardware, in which every routed processor scans the triangle but clips away
// pixels outside its own tiles.
package raster

import (
	"math"

	"repro/internal/geom"
)

// Span is one rasterized row: pixels [X0, X1) on row Y.
type Span struct {
	Y      int
	X0, X1 int
}

// Width returns the number of pixels in the span.
func (s Span) Width() int { return s.X1 - s.X0 }

type edge struct {
	// Half-plane a*x + b*y + c ≥ 0 (CCW interior), with the top-left rule
	// deciding whether the boundary itself counts as inside.
	a, b, c   float64
	inclusive bool
}

// Rasterizer scans triangles clipped against a screen rectangle. The zero
// value is not usable; construct with New.
type Rasterizer struct {
	screen geom.Rect
}

// New returns a rasterizer clipping to the given screen rectangle.
func New(screen geom.Rect) *Rasterizer {
	return &Rasterizer{screen: screen}
}

// Screen returns the clip rectangle the rasterizer was built with.
func (r *Rasterizer) Screen() geom.Rect { return r.screen }

// makeEdges builds the three CCW half-planes of t, flipping winding if
// needed. It returns false for degenerate triangles.
func makeEdges(t geom.Triangle) ([3]edge, bool) {
	var e [3]edge
	if t.Degenerate() {
		return e, false
	}
	v := t.V
	if t.SignedArea() < 0 {
		v[1], v[2] = v[2], v[1]
	}
	for i := 0; i < 3; i++ {
		p, q := v[i], v[(i+1)%3]
		// With positive signed area, interior points s satisfy
		// (q-p) × (s-p) ≥ 0, i.e. a*x + b*y + c ≥ 0 with
		// a = -(q.Y - p.Y), b = (q.X - p.X).
		a := p.Y - q.Y
		b := q.X - p.X
		c := -(float64(a*p.X) + float64(b*p.Y))
		// Top-left rule: an edge is "top" when it is horizontal and the
		// interior is below it (b > 0 after our sign convention means moving
		// down increases the function, so the interior is below); it is
		// "left" when a > 0 (interior to the right). Top and left edges own
		// their boundary pixels.
		inclusive := a > 0 || (a == 0 && b > 0)
		e[i] = edge{a: a, b: b, c: c, inclusive: inclusive}
	}
	return e, true
}

// ForEachSpan calls fn for every covered span of t inside clip (which is
// additionally intersected with the screen rectangle). Spans are emitted in
// scan order: increasing y, and each row at most once.
func (r *Rasterizer) ForEachSpan(t geom.Triangle, clip geom.Rect, fn func(Span)) {
	region := r.screen.Intersect(clip).Intersect(t.BBox())
	if region.Empty() {
		return
	}
	edges, ok := makeEdges(t)
	if !ok {
		return
	}
	for y := region.Y0; y < region.Y1; y++ {
		yc := float64(y) + 0.5
		// Intersect the three half-planes with the row line to get the real
		// interval of x pixel centers inside the triangle.
		lo := float64(region.X0) + 0.5
		hi := float64(region.X1-1) + 0.5
		empty := false
		for _, e := range edges {
			rhs := -(float64(e.b*yc) + e.c)
			switch {
			case e.a > 0:
				x := rhs / e.a
				if !e.inclusive {
					x = math.Nextafter(x, math.Inf(1))
				}
				if x > lo {
					lo = x
				}
			case e.a < 0:
				x := rhs / e.a
				if !e.inclusive {
					x = math.Nextafter(x, math.Inf(-1))
				}
				if x < hi {
					hi = x
				}
			default:
				// Horizontal boundary: the whole row is in or out.
				val := float64(e.b*yc) + e.c
				if val < 0 || (val == 0 && !e.inclusive) {
					empty = true
				}
			}
			if empty {
				break
			}
		}
		if empty || lo > hi {
			continue
		}
		x0 := int(math.Ceil(lo - 0.5))
		x1 := int(math.Floor(hi-0.5)) + 1
		if x0 < region.X0 {
			x0 = region.X0
		}
		if x1 > region.X1 {
			x1 = region.X1
		}
		if x0 < x1 {
			fn(Span{Y: y, X0: x0, X1: x1})
		}
	}
}

// AppendSpans appends every covered span of t inside clip to dst and returns
// the extended slice, in the same scan order as ForEachSpan. Passing a
// buffer truncated to zero length (dst[:0]) makes repeated rasterization
// allocation-free once the buffer has grown to the working-set size — the
// reusable span buffer of the simulator's per-triangle hot path.
func (r *Rasterizer) AppendSpans(t geom.Triangle, clip geom.Rect, dst []Span) []Span {
	r.ForEachSpan(t, clip, func(s Span) {
		dst = append(dst, s)
	})
	return dst
}

// PixelCount returns the number of pixels of t covered inside clip.
func (r *Rasterizer) PixelCount(t geom.Triangle, clip geom.Rect) int {
	n := 0
	r.ForEachSpan(t, clip, func(s Span) { n += s.Width() })
	return n
}

// CoverageMask returns the covered pixels of t inside clip as a set keyed by
// (x, y). Intended for tests and validation, not the hot path.
func (r *Rasterizer) CoverageMask(t geom.Triangle, clip geom.Rect) map[[2]int]bool {
	m := make(map[[2]int]bool)
	r.ForEachSpan(t, clip, func(s Span) {
		for x := s.X0; x < s.X1; x++ {
			m[[2]int{x, s.Y}] = true
		}
	})
	return m
}
