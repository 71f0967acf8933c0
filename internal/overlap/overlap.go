// Package overlap implements the analytical primitive-overlap model of Chen
// et al. ("Models of the impact of overlap in bucket rendering", Graphics
// Hardware 1998), which the paper cites as the way to reason about its
// small-triangle setup cost: when the screen is bucketed into tiles, a
// triangle whose bounding box measures w×h pixels lands, in expectation over
// placements, in
//
//	(w/Tw + 1) · (h/Th + 1)
//
// tiles of size Tw×Th. Every touched tile's owner must set the triangle up
// (≥25 cycles in the paper's engine), so the total setup work of a frame
// grows with this overlap factor as tiles shrink — the analytical
// counterpart of the simulated speedup collapse at tiny tile sizes.
package overlap

import (
	"fmt"

	"repro/internal/distrib"
	"repro/internal/trace"
)

// TilesTouched returns the Chen et al. expected tile-overlap factor for a
// bounding box of bw×bh pixels on a grid of tw×th tiles.
func TilesTouched(bw, bh, tw, th float64) float64 {
	if bw <= 0 || bh <= 0 || tw <= 0 || th <= 0 {
		return 0
	}
	return (bw/tw + 1) * (bh/th + 1)
}

// Prediction summarizes the analytical overlap estimate for one scene and
// distribution geometry.
type Prediction struct {
	// MeanOverlap is the expected tiles (block) or line groups (SLI) a
	// triangle touches.
	MeanOverlap float64
	// MeanRouted is the expected processors a triangle is delivered to:
	// overlap clamped at the processor count per triangle.
	MeanRouted float64
	// TotalRouted is MeanRouted summed over drawable triangles.
	TotalRouted float64
	// SetupFraction estimates the share of total machine work that is
	// triangle setup: routed × setup cycles over that plus one cycle per
	// fragment.
	SetupFraction float64
}

// Predict evaluates the model for a scene on a distribution of the given
// kind, size and processor count, with the paper's setup cost.
func Predict(s *trace.Scene, kind distrib.Kind, procs, size, setupCycles int) (Prediction, error) {
	if procs <= 0 || size <= 0 {
		return Prediction{}, fmt.Errorf("overlap: bad geometry procs=%d size=%d", procs, size)
	}
	var p Prediction
	n := 0
	var fragments float64
	for i := range s.Triangles {
		t := &s.Triangles[i]
		bb := t.BBox().Intersect(s.Screen)
		if bb.Empty() || t.Degenerate() {
			continue
		}
		n++
		bw, bh := float64(bb.Width()), float64(bb.Height())
		var ov float64
		switch kind {
		case distrib.BlockKind:
			ov = TilesTouched(bw, bh, float64(size), float64(size))
		case distrib.SLIKind:
			ov = bh/float64(size) + 1
		default:
			return Prediction{}, fmt.Errorf("overlap: unknown kind %v", kind)
		}
		p.MeanOverlap += ov
		routed := ov
		if routed > float64(procs) {
			routed = float64(procs)
		}
		p.TotalRouted += routed
		fragments += t.Area()
	}
	if n == 0 {
		return Prediction{}, fmt.Errorf("overlap: scene has no drawable triangles")
	}
	p.MeanOverlap /= float64(n)
	p.MeanRouted = p.TotalRouted / float64(n)
	setup := float64(p.TotalRouted * float64(setupCycles))
	if denom := setup + fragments; denom > 0 {
		p.SetupFraction = setup / denom
	}
	return p, nil
}

// MeasureRouted counts the actual triangle deliveries of a distribution by
// bounding-box routing — the quantity Predict estimates analytically, and
// exactly what the sort-middle machine's distributor does.
func MeasureRouted(s *trace.Scene, d distrib.Distribution) (total uint64, mean float64) {
	n := 0
	scratch := make([]int, 0, d.NumProcs())
	for i := range s.Triangles {
		scratch = d.Route(s.Triangles[i].BBox(), scratch[:0])
		if len(scratch) == 0 {
			continue
		}
		n++
		total += uint64(len(scratch))
	}
	if n > 0 {
		mean = float64(total) / float64(n)
	}
	return total, mean
}
