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
	Segments []Segment
}

// Segment is one owned pixel run: pixels [X0, X1) on row Y, one tile's cut
// of a rasterized span. It is the compact, 6-byte form a frame's work list
// holds (raster.Span is three ints), so a screen's coordinates must lie in
// [0, 65535]; the machine and the artifact builder reject larger screens.
type Segment struct {
	Y, X0, X1 uint16
}

// Width returns the number of pixels in the segment.
func (s Segment) Width() int { return int(s.X1) - int(s.X0) }

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
	// probe holds the node's texture cache and, optionally, the second
	// level (the paper's §9 future work, after Cox): the graphics-card
	// memory acting as an L2 texture cache in front of main memory. An L1
	// miss that hits in L2 costs only the L1 bus; an L2 miss additionally
	// occupies the main-memory bus.
	probe   Prober
	bus     *memory.Bus
	mainBus *memory.Bus

	time     float64 // local pipeline clock: when the node goes idle
	stats    Stats
	foot     [8]texture.Addr // the last footprint Sampler.Next wrote
	pureScan bool            // perfect cache + infinite bus: skip texel generation
	// ring holds the retire times of the last len(ring) fragments: the
	// prefetch fragment FIFO. A fragment's line fetches are issued when the
	// fragment PrefetchDepth slots earlier retires (when it enters the FIFO).
	ring    []float64
	ringPos int
	// ops is the op scratch ProcessTriangle and ProcessPrecomputed probe a
	// work item into before timing it (see opScratch).
	ops []uint32
	// rec, when non-nil, receives one phase attribution per triangle.
	rec PhaseRecorder
	_   [64]byte // no other node's state on these lines; see TestNodeStateIsPadded
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
		probe:       Prober{L1: c},
		bus:         bus,
		ring:        newRing(prefetchDepth),
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

// newRing allocates a prefetch ring of depth slots in a backing array
// rounded up to whole 64-byte lines plus one, so the slots never share a line
// with the next allocation (TestRingsShareNoLine).
func newRing(depth int) []float64 {
	const lineSlots = 64 / 8
	return make([]float64, depth, (depth+lineSlots-1)/lineSlots*lineSlots+lineSlots)
}

// SetRecorder attaches (or, with nil, detaches) the flight-recorder hook.
func (e *Engine) SetRecorder(r PhaseRecorder) { e.rec = r }

// AttachL2 adds a second-level texture cache backed by a main-memory bus.
// Must be called before the first triangle is processed.
func (e *Engine) AttachL2(l2 cache.Model, mainBus *memory.Bus) {
	e.probe.L2 = l2
	e.mainBus = mainBus
}

// L2Stats returns the second-level cache counters (zero Stats without an L2).
func (e *Engine) L2Stats() cache.Stats {
	if e.probe.L2 == nil {
		return cache.Stats{}
	}
	return e.probe.L2.Stats()
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
func (e *Engine) CacheStats() cache.Stats { return e.probe.L1.Stats() }

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
	e.probe.L1.Reset()
	e.bus.Reset()
	if e.probe.L2 != nil {
		e.probe.L2.Reset()
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
// fragment's trilinear footprint is generated here, from the mip pair
// resolved once for the triangle, and probed — the L1, and the L2 for what
// missed — into the engine's op scratch; a fragment whose footprint touches
// the previous fragment's lines in the same order, when the cache
// guarantees such repeats hit, is counted as a hit without a lookup or even
// a new footprint (texture.Sampler.Next). ProcessMisses then times the
// ops. This is Prober.AppendMisses's probe loop with the footprints
// generated instead of read from a recorded stream.
func (e *Engine) ProcessTriangle(arrival float64, w *TriangleWork) float64 {
	if e.pureScan {
		return e.ProcessMisses(arrival, w.Segments, nil)
	}
	ops := e.opScratch(w.Segments)
	smp := w.Tex.Sampler(w.LOD)
	repeatFast := e.probe.L1.RepeatHits()
	hits, repeats := 0, 0
	for _, sp := range w.Segments {
		yc := float64(sp.Y) + 0.5
		xc := float64(sp.X0) + 0.5
		u := w.Map.U0 + float64(w.Map.DuDx*xc) + float64(w.Map.DuDy*yc)
		v := w.Map.V0 + float64(w.Map.DvDx*xc) + float64(w.Map.DvDy*yc)
		for x := sp.X0; x < sp.X1; x++ {
			if smp.Next(u, v, &e.foot) && repeatFast {
				repeats++
				hits++
			} else if missMask := e.probe.L1.AccessFootprint(&e.foot); missMask == 0 {
				hits++
			} else {
				ops = append(appendHits(ops, hits), e.probe.misses(missMask, &e.foot))
				hits = 0
			}
			u += w.Map.DuDx
			v += w.Map.DvDx
		}
	}
	if repeats > 0 {
		e.probe.L1.AddHits(uint64(repeats) * 8)
	}
	return e.ProcessMisses(arrival, w.Segments, appendHits(ops, hits))
}

// opScratch returns the engine's op scratch, emptied, with room for the ops
// of a work item over segs: at most one per fragment. The scratch is
// written on every fragment while other nodes' engines are written on
// other workers, so it is allocated, and regrown, in whole 64-byte lines
// plus one that its capacity hides, as newRing does (TestRingsShareNoLine).
func (e *Engine) opScratch(segs []Segment) []uint32 {
	n := 0
	for _, sp := range segs {
		n += sp.Width()
	}
	if n > cap(e.ops) {
		const lineSlots = 64 / 4
		n = max(n, 2*cap(e.ops))
		buf := make([]uint32, (n+lineSlots-1)/lineSlots*lineSlots+lineSlots)
		e.ops = buf[: 0 : len(buf)-lineSlots]
	}
	return e.ops[:0]
}

// scanPixels is a whole triangle in the pure-scan regime: one cycle per
// owned pixel, no texel traffic. It returns the scan clock after s.
func (e *Engine) scanPixels(s float64, segs []Segment) float64 {
	for _, sp := range segs {
		n := sp.Width()
		s += float64(n)
		e.stats.Fragments += uint64(n)
	}
	return s
}

// missFragment is the timing body of a fragment whose probes missed: l1 ≥ 1
// lines in the L1, main of them in the L2 too. It issues the fetches,
// stalls the scanner until they arrive, retires the fragment and returns
// the scan clock after it. A fragment that missed nothing is timed by
// hitFragments. Neither reads a cache, and ProcessMisses is their only
// caller: the probes ran before, into the ops it replays.
func (e *Engine) missFragment(start, s float64, l1, main int) float64 {
	s++ // one scan cycle per fragment
	// Fetches were issued when this fragment entered the prefetch FIFO, i.e.
	// when the fragment PrefetchDepth slots earlier retired — but never
	// before the triangle itself arrived, since its addresses were unknown
	// until then.
	issue := e.ring[e.ringPos]
	if issue < start {
		issue = start
	}
	ready := e.bus.Fetch(issue, l1)
	if main > 0 {
		// L2-missing lines must first cross the main-memory bus; the
		// fragment waits for the slower of the two.
		if mainReady := e.mainBus.Fetch(issue, main); mainReady > ready {
			ready = mainReady
		}
	}
	if ready > s {
		e.stats.StallCycles += ready - s
		s = ready
	}
	e.retire(s)
	e.stats.Fragments++
	return s
}

// hitFragments times n fragments that all hit: only the scan clock, the
// prefetch ring and the fragment count move. The clock steps one cycle per
// fragment, never s += n, which differs from n increments once s holds a
// fraction (a stall on a bus whose line cost is not an integer) and the run
// crosses a power of two. Only the last len(ring) retire times can still be
// read, and retiring them fills every slot, oldest first from the ring
// position, so a longer run leaves the ring alone until then.
func (e *Engine) hitFragments(s float64, n int) float64 {
	e.stats.Fragments += uint64(n)
	for ; n > len(e.ring); n-- {
		s++
	}
	for ; n > 0; n-- {
		s++
		e.retire(s)
	}
	return s
}

// retire records a fragment retiring at s in the prefetch ring.
func (e *Engine) retire(s float64) {
	e.ring[e.ringPos] = s
	e.ringPos++
	if e.ringPos == len(e.ring) {
		e.ringPos = 0
	}
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
