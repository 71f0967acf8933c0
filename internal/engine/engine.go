// Package engine models one node of the parallel machine: the fixed-function
// texture-mapping pipeline of a commodity PC 3D accelerator as the paper
// abstracts it.
//
// The node contract (paper §3.1):
//
//   - a setup engine that needs the equivalent of 25 pixels per triangle, so
//     a triangle costs max(25, scan cycles) — small clipped triangles are
//     setup-bound;
//   - a pixel scanner retiring one fragment per cycle when texels are
//     resident;
//   - a trilinear filter performing 8 texel lookups per fragment in the
//     node's private texture cache;
//   - an external texture bus delivering a bounded number of texels per
//     cycle (memory.Bus), hidden behind the Igehy prefetching architecture:
//     a fragment FIFO of PrefetchDepth entries lets line fetches for
//     fragment i start as soon as fragment i−depth retires, so sustained
//     throughput is max(scan rate, bandwidth) and only miss *bursts* deeper
//     than the FIFO stall the scanner — exactly the zero-latency-but-
//     bandwidth-bound behaviour the paper adopts from [Igehy et al. 98].
//
// The engine is a pure timing model: the parallel machine (internal/core)
// owns event scheduling and feeds the engine one triangle's worth of owned
// pixel segments at a time.
package engine

import (
	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/texture"
)

// DefaultSetupCycles is the paper's triangle setup cost: one triangle per 25
// pixels, the value [Chen et al. 98] considers representative.
const DefaultSetupCycles = 25

// DefaultPrefetchDepth is the depth of the prefetch fragment FIFO, sized
// after the Igehy et al. prefetching texture architecture the paper's node
// assumes.
const DefaultPrefetchDepth = 32

// TriangleWork is one triangle's contribution to one node: the texture it
// binds, its texture mapping, and the pixel segments of the triangle that
// the node owns (already clipped to the node's tiles by the distributor).
type TriangleWork struct {
	Tex      *texture.Texture
	Map      geom.TexMap
	LOD      float64
	Segments []raster.Span
}

// PhaseRecorder receives per-triangle phase attributions from the engine —
// the flight-recorder hook (internal/telemetry/flight). The engine reports
// where each triangle's cycles went; the recorder derives idle time from
// the gap between start and the end of the previous triangle it saw.
//
// The hook fires once per triangle, never per fragment, and only when a
// recorder is attached: the disabled path is a single always-false nil
// check, so recording costs nothing when off.
type PhaseRecorder interface {
	// RecordTriangle attributes one triangle beginning at start: scan
	// cycles retiring fragments, stall cycles waiting on the texture bus,
	// and setup cycles where the per-triangle setup floor exceeded the
	// scan+stall work.
	RecordTriangle(start, scan, stall, setup float64)
}

// Stats accumulates one node's counters across a run.
type Stats struct {
	Triangles   uint64  // triangles routed to this node (incl. zero-pixel)
	Fragments   uint64  // pixels drawn
	SetupBound  uint64  // triangles whose cost was the setup minimum
	StallCycles float64 // scanner cycles lost waiting on the texture bus
	BusyCycles  float64 // total pipeline time consumed
}

// Engine is one node's pipeline timing model.
type Engine struct {
	id          int
	setupCycles float64
	cache       cache.Model
	bus         *memory.Bus
	// Optional second level (the paper's §9 future work, after Cox): the
	// graphics-card memory acting as an L2 texture cache in front of main
	// memory. An L1 miss that hits in L2 costs only the L1 bus; an L2 miss
	// additionally occupies the main-memory bus.
	l2      cache.Model
	mainBus *memory.Bus

	time     float64 // local pipeline clock: when the node goes idle
	stats    Stats
	foot     [8]texture.Addr
	pureScan bool // perfect cache + infinite bus: skip texel generation
	// ring holds the retire times of the last len(ring) fragments: the
	// prefetch fragment FIFO. A fragment's line fetches are issued when the
	// fragment PrefetchDepth slots earlier retires (when it enters the FIFO).
	ring    []float64
	ringPos int
	// rec, when non-nil, receives one phase attribution per triangle.
	rec PhaseRecorder
}

// New returns an idle engine with the given cache model and bus and the
// default prefetch depth.
func New(id int, setupCycles int, c cache.Model, bus *memory.Bus) *Engine {
	return NewWithPrefetch(id, setupCycles, DefaultPrefetchDepth, c, bus)
}

// NewWithPrefetch returns an idle engine with an explicit prefetch fragment
// FIFO depth (≥1; 1 means no overlap between fetch and scan).
func NewWithPrefetch(id, setupCycles, prefetchDepth int, c cache.Model, bus *memory.Bus) *Engine {
	if setupCycles < 0 {
		setupCycles = 0
	}
	if prefetchDepth < 1 {
		prefetchDepth = 1
	}
	e := &Engine{
		id:          id,
		setupCycles: float64(setupCycles),
		cache:       c,
		bus:         bus,
		ring:        make([]float64, prefetchDepth),
	}
	// A perfect cache on an infinite bus never stalls and fetches nothing:
	// scanning is then pure pixel counting, so skip texel address generation
	// entirely. This is the configuration of every load-balancing-only
	// experiment (paper §5), where it is ~8× faster.
	if _, perfect := c.(*cache.Perfect); perfect && bus.Config().Infinite() {
		e.pureScan = true
	}
	return e
}

// SetRecorder attaches (or, with nil, detaches) the flight-recorder hook.
func (e *Engine) SetRecorder(r PhaseRecorder) { e.rec = r }

// AttachL2 adds a second-level texture cache backed by a main-memory bus.
// Must be called before the first triangle is processed.
func (e *Engine) AttachL2(l2 cache.Model, mainBus *memory.Bus) {
	e.l2 = l2
	e.mainBus = mainBus
}

// L2Stats returns the second-level cache counters (zero Stats without an L2).
func (e *Engine) L2Stats() cache.Stats {
	if e.l2 == nil {
		return cache.Stats{}
	}
	return e.l2.Stats()
}

// MainBusStats returns the main-memory bus counters (zero without an L2).
func (e *Engine) MainBusStats() memory.BusStats {
	if e.mainBus == nil {
		return memory.BusStats{}
	}
	return e.mainBus.Stats()
}

// AdvanceTo forces the node clock forward to t if it is idle earlier — the
// end-of-frame barrier (buffer swap) between frames of a sequence.
func (e *Engine) AdvanceTo(t float64) {
	if t > e.time {
		e.time = t
	}
}

// ID returns the node index.
func (e *Engine) ID() int { return e.id }

// Time returns the node's local clock: the cycle at which all accepted work
// completes.
func (e *Engine) Time() float64 { return e.time }

// Stats returns the node's counters.
func (e *Engine) Stats() Stats { return e.stats }

// CacheStats returns the node's texture-cache counters.
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// BusStats returns the node's texture-bus counters.
func (e *Engine) BusStats() memory.BusStats { return e.bus.Stats() }

// TexelToFragment returns the external-bandwidth metric the paper uses
// throughout: texels fetched from texture memory per fragment drawn.
func (e *Engine) TexelToFragment() float64 {
	if e.stats.Fragments == 0 {
		return 0
	}
	return float64(e.bus.Stats().TexelsFetched()) / float64(e.stats.Fragments)
}

// Reset returns the engine, its cache and its bus to the idle initial state.
func (e *Engine) Reset() {
	e.time = 0
	e.stats = Stats{}
	e.cache.Reset()
	e.bus.Reset()
	if e.l2 != nil {
		e.l2.Reset()
		e.mainBus.Reset()
	}
	for i := range e.ring {
		e.ring[i] = 0
	}
	e.ringPos = 0
}

// StartTriangle returns the cycle at which the engine would begin a triangle
// arriving at the given time: it cannot start before its pending work drains.
func (e *Engine) StartTriangle(arrival float64) float64 {
	if arrival > e.time {
		return arrival
	}
	return e.time
}

// ProcessTriangle runs one triangle through the pipeline, beginning no
// earlier than arrival, and returns the absolute completion time. The
// triangle holds the pipeline for max(setup, scan) cycles (setup overlaps
// scanning; a clipped sliver still costs the full setup time). Each
// fragment's trilinear footprint is generated here and timed by
// scanFragment, the per-fragment body ProcessPrecomputed replays recorded
// footprints through.
func (e *Engine) ProcessTriangle(arrival float64, w *TriangleWork) float64 {
	start := e.StartTriangle(arrival)
	stall0 := e.stats.StallCycles
	if e.pureScan {
		return e.finishTriangle(start, stall0, e.scanPixels(start, w.Segments))
	}
	s := start
	for _, sp := range w.Segments {
		yc := float64(sp.Y) + 0.5
		xc := float64(sp.X0) + 0.5
		u := w.Map.U0 + w.Map.DuDx*xc + w.Map.DuDy*yc
		v := w.Map.V0 + w.Map.DvDx*xc + w.Map.DvDy*yc
		for x := sp.X0; x < sp.X1; x++ {
			w.Tex.TrilinearFootprint(u, v, w.LOD, &e.foot)
			s = e.scanFragment(start, s, &e.foot)
			u += w.Map.DuDx
			v += w.Map.DvDx
		}
	}
	return e.finishTriangle(start, stall0, s)
}

// scanPixels is a whole triangle in the pure-scan regime: one cycle per
// owned pixel, no texel traffic. It returns the scan clock after s.
func (e *Engine) scanPixels(s float64, segs []raster.Span) float64 {
	for _, sp := range segs {
		n := sp.Width()
		s += float64(n)
		e.stats.Fragments += uint64(n)
	}
	return s
}

// scanFragment times one fragment with a known footprint — the single
// per-fragment access/miss/stall/ring body of both ProcessTriangle and
// ProcessPrecomputed — and returns the scan clock after it retires.
func (e *Engine) scanFragment(start, s float64, foot *[8]texture.Addr) float64 {
	s++ // one scan cycle per fragment
	misses, mainMisses := 0, 0
	for _, a := range foot {
		if !e.cache.Access(a) {
			misses++
			if e.l2 != nil && !e.l2.Access(a) {
				mainMisses++
			}
		}
	}
	if misses > 0 {
		// Fetches were issued when this fragment entered the prefetch FIFO,
		// i.e. when the fragment PrefetchDepth slots earlier retired — but
		// never before the triangle itself arrived, since its addresses
		// were unknown until then.
		issue := e.ring[e.ringPos]
		if issue < start {
			issue = start
		}
		ready := e.bus.Fetch(issue, misses)
		if mainMisses > 0 {
			// L2-missing lines must first cross the main-memory bus; the
			// fragment waits for the slower of the two.
			if mainReady := e.mainBus.Fetch(issue, mainMisses); mainReady > ready {
				ready = mainReady
			}
		}
		if ready > s {
			e.stats.StallCycles += ready - s
			s = ready
		}
	}
	e.ring[e.ringPos] = s
	e.ringPos++
	if e.ringPos == len(e.ring) {
		e.ringPos = 0
	}
	e.stats.Fragments++
	return s
}

// finishTriangle applies the setup-cost floor and advances the node clock.
// stall0 is the stall counter at triangle start, so the attached recorder
// (if any) sees only this triangle's stall cycles.
func (e *Engine) finishTriangle(start, stall0, s float64) float64 {
	cost := s - start
	setupPad := 0.0
	if cost < e.setupCycles {
		setupPad = e.setupCycles - cost
		cost = e.setupCycles
		e.stats.SetupBound++
	}
	e.stats.Triangles++
	e.stats.BusyCycles += cost
	e.time = start + cost
	if e.rec != nil {
		stall := e.stats.StallCycles - stall0
		e.rec.RecordTriangle(start, s-start-stall, stall, setupPad)
	}
	return e.time
}
