// The precomputed-replay path: ProcessTriangle's texel address generation —
// the trilinear footprint per fragment — depends only on the triangle's
// texture mapping and owned segments, never on the cache or bus
// configuration. A raster artifact (internal/core) therefore captures each
// fragment's 8-address footprint once, run-length encoded over consecutive
// identical footprints, and ProcessPrecomputed replays it into any cache/bus
// configuration with byte-identical timing and counters.
//
// Equivalence contract: ProcessTriangle and ProcessPrecomputed differ only
// in where each fragment's footprint comes from. Both probe a work item
// into the engine's op scratch — the live loop in ProcessTriangle, the
// replay through Prober.AppendMisses — and time the ops through
// ProcessMisses. A fragment that repeats the footprint before it
// re-accesses lines that fragment just touched; when the cache model
// guarantees such repeats hit without disturbing replacement state
// (cache.Model.RepeatHits), both loops count it as a hit (AddHits) and skip
// the lookup — the replay a whole run at a time, the live loop one
// fragment at a time. Models without the guarantee (the cacheless model)
// probe every repeat.
package engine

import (
	"math"

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
	Segments []Segment
	// Addrs is the run-length-encoded footprint stream: 8 addresses per run.
	Addrs []texture.Addr
	// Reps holds each run's fragment count; len(Addrs) == 8*len(Reps) and
	// the Reps sum to the fragment count of Segments.
	Reps []int32
}

// Precompute returns w's replayable counterpart: the same segments, with
// the footprint stream AppendFootprints generates.
func (w *TriangleWork) Precompute() PrecomputedWork {
	pw := PrecomputedWork{Segments: w.Segments}
	pw.Addrs, pw.Reps = w.AppendFootprints(nil, nil)
	return pw
}

// AppendFootprints appends w's footprint stream to addrs and reps and
// returns the extended slices: every fragment's trilinear footprint,
// generated by the u/v arithmetic of ProcessTriangle — recomputed at each
// segment start, stepped per pixel — and run-length encoded over
// consecutive identical footprints. Runs never extend ones present before
// the call, so a builder can reuse one scratch pair for every work item.
func (w *TriangleWork) AppendFootprints(addrs []texture.Addr, reps []int32) ([]texture.Addr, []int32) {
	first := len(reps)
	smp := w.Tex.Sampler(w.LOD)
	var foot, prev [8]texture.Addr
	for _, sp := range w.Segments {
		yc := float64(sp.Y) + 0.5
		xc := float64(sp.X0) + 0.5
		u := w.Map.U0 + w.Map.DuDx*xc + w.Map.DuDy*yc
		v := w.Map.V0 + w.Map.DvDx*xc + w.Map.DvDy*yc
		for x := sp.X0; x < sp.X1; x++ {
			smp.Footprint(u, v, &foot)
			if n := len(reps); n > first && sameFootprint(&foot, &prev) && reps[n-1] < math.MaxInt32 {
				reps[n-1]++
			} else {
				addrs = append(addrs, foot[:]...)
				reps = append(reps, 1)
				prev = foot
			}
			u += w.Map.DuDx
			v += w.Map.DvDx
		}
	}
	return addrs, reps
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
// absolute completion time: the probe pass into the engine's op scratch,
// then the timing pass. Byte-identical to ProcessTriangle for a work item
// built from the same triangle on the same scene.
func (e *Engine) ProcessPrecomputed(arrival float64, w *PrecomputedWork) float64 {
	if e.pureScan {
		return e.ProcessMisses(arrival, w.Segments, nil)
	}
	return e.ProcessMisses(arrival, w.Segments, e.probe.AppendMisses(e.opScratch(w.Segments), w))
}

// PureScan reports whether this engine is in the pure-scan regime (perfect
// cache on an infinite bus), where texel addresses are never consulted and a
// spans-only artifact suffices for replay.
func (e *Engine) PureScan() bool { return e.pureScan }
