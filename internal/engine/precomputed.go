// The precomputed-replay path: ProcessTriangle's texel address generation —
// the trilinear footprint per fragment — depends only on the triangle's
// texture mapping and owned segments, never on the cache or bus
// configuration. A raster artifact (internal/core) therefore captures each
// fragment's 8-address footprint once, run-length encoded over consecutive
// identical footprints, and ProcessPrecomputed replays it into any cache/bus
// configuration with byte-identical timing and counters.
//
// Equivalence contract: ProcessTriangle and ProcessPrecomputed time every
// fragment through the same bodies, so for the same arrival and the same
// triangle they differ only in where the footprint comes from. A fragment
// whose footprint differs from the one before it is probed (Prober.Fragment's
// two halves) and then timed (missFragment or hitFragments). A fragment
// that repeats it re-accesses lines the previous fragment just touched;
// when the cache model guarantees such repeats hit without disturbing
// replacement state (cache.Model.RepeatHits), both paths account it
// through repeatFragments and skip the lookups — the replay a whole run at
// a time, the live path one fragment at a time. Models without the
// guarantee (the cacheless model) probe and time every repeat. The
// miss-stream path (missstream.go) runs the same probes ahead of time and
// the same timing bodies later.
package engine

import (
	"math"

	"repro/internal/raster"
	"repro/internal/texture"
)

// PrecomputedWork is one triangle's contribution to one node with the texel
// address stream already generated: the replayable counterpart of
// TriangleWork. Addrs holds one 8-address trilinear footprint per run and
// Reps the run's fragment count; runs are in fragment scan order and may
// cross segment boundaries.
type PrecomputedWork struct {
	// Segments are the owned pixel segments, identical to the TriangleWork
	// the distributor would have built (the pure-scan path uses them).
	Segments []raster.Span
	// Addrs is the run-length-encoded footprint stream: 8 addresses per run.
	Addrs []texture.Addr
	// Reps holds each run's fragment count; len(Addrs) == 8*len(Reps) and
	// the Reps sum to the fragment count of Segments.
	Reps []int32
}

// Precompute returns w's replayable counterpart: the same segments, with
// every fragment's trilinear footprint generated by the u/v arithmetic of
// ProcessTriangle — recomputed at each span start, stepped per pixel — and
// run-length encoded over consecutive identical footprints.
func (w *TriangleWork) Precompute() PrecomputedWork {
	pw := PrecomputedWork{Segments: w.Segments}
	smp := w.Tex.Sampler(w.LOD)
	var foot, prev [8]texture.Addr
	for _, sp := range w.Segments {
		yc := float64(sp.Y) + 0.5
		xc := float64(sp.X0) + 0.5
		u := w.Map.U0 + w.Map.DuDx*xc + w.Map.DuDy*yc
		v := w.Map.V0 + w.Map.DvDx*xc + w.Map.DvDy*yc
		for x := sp.X0; x < sp.X1; x++ {
			smp.Footprint(u, v, &foot)
			if n := len(pw.Reps); n > 0 && sameFootprint(&foot, &prev) && pw.Reps[n-1] < math.MaxInt32 {
				pw.Reps[n-1]++
			} else {
				pw.Addrs = append(pw.Addrs, foot[:]...)
				pw.Reps = append(pw.Reps, 1)
				prev = foot
			}
			u += w.Map.DuDx
			v += w.Map.DvDx
		}
	}
	return pw
}

// Frags returns the total fragment count of the owned segments.
func (w *PrecomputedWork) Frags() int {
	n := 0
	for _, sp := range w.Segments {
		n += sp.Width()
	}
	return n
}

// ProcessPrecomputed runs one triangle whose footprints were precomputed
// through the pipeline, beginning no earlier than arrival, and returns the
// absolute completion time — ProcessTriangle with the address generation
// replaced by the recorded stream. Byte-identical to ProcessTriangle for a
// work item built from the same triangle on the same scene.
func (e *Engine) ProcessPrecomputed(arrival float64, w *PrecomputedWork) float64 {
	start := e.StartTriangle(arrival)
	stall0 := e.stats.StallCycles
	if e.pureScan {
		return e.finishTriangle(start, stall0, e.scanPixels(start, w.Segments))
	}
	s := start
	repeatFast := e.probe.L1.RepeatHits()
	for r := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8:])
		reps := int(w.Reps[r])
		probes := reps
		if repeatFast {
			probes = 1
		}
		for j := 0; j < probes; j++ {
			if missMask := e.probe.L1.AccessFootprint(foot); missMask == 0 {
				s = e.hitFragments(s, 1)
			} else {
				l1, main := e.probe.misses(missMask, foot)
				s = e.missFragment(start, s, l1, main)
			}
		}
		if repeatFast && reps > 1 {
			s = e.repeatFragments(s, reps-1)
		}
	}
	return e.finishTriangle(start, stall0, s)
}

// PureScan reports whether this engine is in the pure-scan regime (perfect
// cache on an infinite bus), where texel addresses are never consulted and a
// spans-only artifact suffices for replay.
func (e *Engine) PureScan() bool { return e.pureScan }
