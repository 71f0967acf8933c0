// The precomputed-replay path: ProcessTriangle's texel address generation —
// the trilinear footprint per fragment — depends only on the triangle's
// texture mapping and owned segments, never on the cache or bus
// configuration. A raster artifact (internal/core) therefore captures the
// footprint stream once, run-length encoded over consecutive fragments
// whose footprints touch the same lines in the same order, and
// ProcessPrecomputed replays it into any cache/bus configuration with
// byte-identical timing and counters.
//
// Equivalence contract: ProcessTriangle and ProcessPrecomputed differ only
// in where each fragment's footprint comes from. Both probe a work item
// into the engine's op scratch — the live loop in ProcessTriangle, the
// replay through Prober.AppendMisses — and time the ops through
// ProcessMisses. Both find repeats by one rule, texture.Sampler.Next's line
// window: a fragment repeats when its footprint touches the same lines, in
// the same order, as the fragment before it. A repeat re-accesses lines
// that fragment just touched; when the cache model guarantees such repeats
// hit without disturbing replacement state (cache.Model.RepeatHits), both
// loops count it as a hit (AddHits) and skip the lookup — the replay a
// whole run at a time, the live loop one fragment at a time. Models without
// the guarantee (the cacheless model) and the L2 see only each address's
// line, so they probe the run's first footprint once per fragment.
package engine

import (
	"math"

	"repro/internal/texture"
)

// PrecomputedWork is one triangle's contribution to one node with the texel
// address stream already generated: the replayable counterpart of
// TriangleWork. Addrs holds the 8-address trilinear footprint of each run's
// first fragment, which stands for every fragment of the run (they touch the
// same lines in the same order), and Reps the run's fragment count; runs
// are in fragment scan order and may cross segment boundaries.
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
// consecutive footprints in the same lines, found by the line window of
// texture.Sampler.Next. Runs never extend ones present before the call, so
// a builder can reuse one scratch pair for every work item.
func (w *TriangleWork) AppendFootprints(addrs []texture.Addr, reps []int32) ([]texture.Addr, []int32) {
	smp := w.Tex.Sampler(w.LOD)
	var foot [8]texture.Addr
	for _, sp := range w.Segments {
		yc := float64(sp.Y) + 0.5
		xc := float64(sp.X0) + 0.5
		u := w.Map.U0 + float64(w.Map.DuDx*xc) + float64(w.Map.DuDy*yc)
		v := w.Map.V0 + float64(w.Map.DvDx*xc) + float64(w.Map.DvDy*yc)
		for x := sp.X0; x < sp.X1; x++ {
			// A new sampler writes on its first call, so a repeat always
			// has a run of this call to extend.
			if smp.Next(u, v, &foot) && reps[len(reps)-1] < math.MaxInt32 {
				reps[len(reps)-1]++
			} else {
				addrs = append(addrs, foot[:]...)
				reps = append(reps, 1)
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
