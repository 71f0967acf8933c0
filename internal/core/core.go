// Package core implements the paper's parallel sort-middle texture-mapping
// machine: N commodity-accelerator nodes, each with a private texture cache
// and texture memory, fed triangles in strict OpenGL order by an ideal
// geometry stage through bounded per-node triangle FIFOs.
//
// The screen is statically partitioned by a distrib.Distribution (square
// blocks or SLI, interleaved). Each triangle is rasterized once and its
// fragments demultiplexed to the owning nodes; a node whose tiles intersect
// the triangle's bounding box receives the triangle even if it ends up
// owning no fragment, and pays at least the triangle setup cost — the
// small-triangle overhead of the paper's section 2.3.
//
// Every sort-middle frame is timed by one walk over its (triangle, node)
// work items in submission order (stream.go), with the node-internal pixel
// pipeline timed by internal/engine. A frame timed once streams: each
// triangle is routed, rasterized and demultiplexed when the walk reaches
// it, and the frame's work list is never stored. A frame timed many times
// is built once into a work list (artifact.go) and walked from there. One
// dispatch rule picks the walk's clock. The FIFO-coupled clock
// (coupledClock) runs on one worker: a direct recurrence on the
// distributor's cycle, where a push into a full FIFO waits for that FIFO's
// oldest item to pop. That back-pressure is what couples nodes together
// and makes the triangle-buffer-size experiment (paper §8) meaningful.
// When no FIFO can overfill, the nodes are independent, and the decoupled
// clock (parallel.go) times each worker's share of the nodes on its own,
// concurrently. Both clocks give byte-identical results wherever the rule
// allows either, streamed or stored.
//
// The package models three machines, each a routing plus a way to time a
// frame:
//
//   - sort-middle, the paper's machine: routed by the configured
//     distribution, walked on the dispatch rule's clock;
//   - the dynamic tile queue of the paper's §9 (dynamic.go): routed one node
//     per tile, its frame built in memory and each tile's list timed whole
//     on the engine that frees first;
//   - sort-last, the paper's [13]/[14] contrast (sortlast.go): routed to one
//     node owning the whole screen, each triangle streamed and timed on the
//     engine its submission index selects.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/telemetry/flight"
	"repro/internal/texture"
	"repro/internal/trace"
)

// CacheKind selects the per-node texture cache model.
type CacheKind int

const (
	// CacheReal is a set-associative cache (paper default: 16 KB 4-way).
	CacheReal CacheKind = iota
	// CachePerfect always hits; the paper's perfect cache for isolating
	// load balancing.
	CachePerfect
	// CacheNone always misses (line-granularity traffic).
	CacheNone
)

// String returns a short identifier for the cache kind.
func (k CacheKind) String() string {
	switch k {
	case CacheReal:
		return "real"
	case CachePerfect:
		return "perfect"
	case CacheNone:
		return "none"
	default:
		return fmt.Sprintf("CacheKind(%d)", int(k))
	}
}

// DefaultTriangleBuffer is the "big enough" triangle FIFO the paper assumes
// everywhere except its buffering study (§8).
const DefaultTriangleBuffer = 10000

// Config describes one machine configuration.
type Config struct {
	// Procs is the number of texture-mapping nodes.
	Procs int
	// Distribution selects block or SLI screen partitioning.
	Distribution distrib.Kind
	// TileSize is the block width in pixels (block) or the number of
	// adjacent lines per group (SLI).
	TileSize int
	// CacheKind selects the per-node cache model; CacheConfig applies only
	// to CacheReal and defaults to the paper's 16 KB 4-way when zero.
	CacheKind   CacheKind
	CacheConfig cache.Config
	// Bus is the per-node texture bus; zero TexelsPerCycle means infinite.
	Bus memory.BusConfig
	// TriangleBuffer is the per-node triangle FIFO depth; 0 means
	// DefaultTriangleBuffer.
	TriangleBuffer int
	// SetupCycles is the triangle setup cost; 0 means the paper's 25.
	SetupCycles int
	// PrefetchDepth is the fragment-FIFO depth hiding memory latency; 0
	// means engine.DefaultPrefetchDepth.
	PrefetchDepth int

	// L2Config, when non-zero, adds a second-level texture cache per node
	// (the graphics-card memory, per the paper's §9 future work and Cox's
	// multi-level caching study). MainBus is then the bandwidth from main
	// memory into the L2 (zero TexelsPerCycle = infinite).
	L2Config cache.Config
	MainBus  memory.BusConfig
}

// withDefaults returns cfg with zero fields replaced by paper defaults.
func (c Config) withDefaults() Config {
	if c.TileSize == 0 {
		c.TileSize = 16
	}
	if c.CacheKind == CacheReal && c.CacheConfig == (cache.Config{}) {
		c.CacheConfig = cache.PaperConfig()
	}
	if c.TriangleBuffer == 0 {
		c.TriangleBuffer = DefaultTriangleBuffer
	}
	if c.SetupCycles == 0 {
		c.SetupCycles = engine.DefaultSetupCycles
	}
	if c.PrefetchDepth == 0 {
		c.PrefetchDepth = engine.DefaultPrefetchDepth
	}
	return c
}

// Validate rejects impossible configurations (after defaulting).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Procs <= 0 {
		return fmt.Errorf("core: processor count %d must be positive", c.Procs)
	}
	if c.TileSize <= 0 {
		return fmt.Errorf("core: tile size %d must be positive", c.TileSize)
	}
	if c.TriangleBuffer <= 0 {
		return fmt.Errorf("core: triangle buffer %d must be positive", c.TriangleBuffer)
	}
	if c.CacheKind == CacheReal {
		if err := c.CacheConfig.Validate(); err != nil {
			return err
		}
	}
	if c.HasL2() {
		if err := c.L2Config.Validate(); err != nil {
			return err
		}
		if err := c.MainBus.Validate(); err != nil {
			return err
		}
	}
	return c.Bus.Validate()
}

// HasL2 reports whether the configuration includes a second-level cache.
func (c Config) HasL2() bool { return c.L2Config != (cache.Config{}) }

// Name returns a compact identifier like "block16/p64".
func (c Config) Name() string {
	c = c.withDefaults()
	return fmt.Sprintf("%s%d/p%d", c.Distribution, c.TileSize, c.Procs)
}

// NodeResult reports one node's counters after a run (for frame sequences,
// the counters are per frame).
type NodeResult struct {
	Fragments   uint64
	Triangles   uint64
	SetupBound  uint64
	StallCycles float64
	BusyCycles  float64
	FinishTime  float64
	Cache       cache.Stats
	Bus         memory.BusStats
	L2          cache.Stats     // zero without an L2
	MainBus     memory.BusStats // zero without an L2
	FIFOPeak    int
}

// sub returns the per-frame delta between two cumulative snapshots.
func (n NodeResult) sub(prev NodeResult) NodeResult {
	return NodeResult{
		Fragments:   n.Fragments - prev.Fragments,
		Triangles:   n.Triangles - prev.Triangles,
		SetupBound:  n.SetupBound - prev.SetupBound,
		StallCycles: n.StallCycles - prev.StallCycles,
		BusyCycles:  n.BusyCycles - prev.BusyCycles,
		FinishTime:  n.FinishTime,
		Cache: cache.Stats{Accesses: n.Cache.Accesses - prev.Cache.Accesses,
			Misses: n.Cache.Misses - prev.Cache.Misses},
		Bus: memory.BusStats{LinesFetched: n.Bus.LinesFetched - prev.Bus.LinesFetched,
			BusyCycles: n.Bus.BusyCycles - prev.Bus.BusyCycles},
		L2: cache.Stats{Accesses: n.L2.Accesses - prev.L2.Accesses,
			Misses: n.L2.Misses - prev.L2.Misses},
		MainBus: memory.BusStats{LinesFetched: n.MainBus.LinesFetched - prev.MainBus.LinesFetched,
			BusyCycles: n.MainBus.BusyCycles - prev.MainBus.BusyCycles},
		FIFOPeak: n.FIFOPeak,
	}
}

// Result is the outcome of simulating one scene on one configuration.
type Result struct {
	Config Config
	Scene  string
	// Cycles is the machine completion time: when the slowest node finishes.
	Cycles float64
	// Fragments is the total pixels drawn across nodes.
	Fragments uint64
	// TrianglesRouted counts (triangle, node) deliveries, including
	// zero-pixel routings.
	TrianglesRouted uint64
	Nodes           []NodeResult
}

// TexelToFragment returns the machine-wide external-bandwidth metric:
// texels fetched across all nodes per fragment drawn. For a single node this
// matches the paper's per-engine ratio; for N nodes it is the average demand
// each private bus must sustain relative to the work done.
func (r *Result) TexelToFragment() float64 {
	if r.Fragments == 0 {
		return 0
	}
	var texels uint64
	for i := range r.Nodes {
		texels += r.Nodes[i].Bus.TexelsFetched()
	}
	return float64(texels) / float64(r.Fragments)
}

// PixelImbalance returns (busiest − average)/average of per-node fragment
// counts, the paper's Figure 5 load-balancing metric, as a fraction (0.5 =
// 50 % imbalance).
func (r *Result) PixelImbalance() float64 {
	return imbalance(r.Nodes, func(n *NodeResult) float64 { return float64(n.Fragments) })
}

// WorkImbalance returns the same metric over pipeline busy cycles, which
// additionally captures setup overhead and cache stalls.
func (r *Result) WorkImbalance() float64 {
	return imbalance(r.Nodes, func(n *NodeResult) float64 { return n.BusyCycles })
}

func imbalance(nodes []NodeResult, metric func(*NodeResult) float64) float64 {
	if len(nodes) == 0 {
		return 0
	}
	maxV, sum := 0.0, 0.0
	for i := range nodes {
		v := metric(&nodes[i])
		sum += v
		if v > maxV {
			maxV = v
		}
	}
	if sum == 0 {
		return 0
	}
	avg := sum / float64(len(nodes))
	return maxV/avg - 1
}

// Machine is a configured parallel engine ready to render scenes.
type Machine struct {
	cfg     Config
	scene   *trace.Scene
	dist    distrib.Distribution
	rast    *raster.Rasterizer
	mgr     *texture.Manager
	engines []*engine.Engine
	// lastFIFOPeaks holds the per-node triangle-FIFO peak occupancy of the
	// most recent frame.
	lastFIFOPeaks []int
	// flight, when non-nil, records every node's per-phase cycle timeline.
	flight *flight.Recorder
	// nodePar bounds the workers that walk or build a frame (see
	// SetNodeParallelism); 0 means runtime.GOMAXPROCS(0).
	nodePar int
	// artifact, when non-nil, supplies every frame's prebuilt work list to
	// walk in place of the stream (see SetRasterArtifact).
	artifact *RasterArtifact
	// streams, when non-nil, is the attached artifact's miss stream for
	// this machine's cache geometry (see SetRasterArtifact); without one, a
	// run with an artifact attached probes each work item as it times it,
	// from its footprint stream or, in a spans-only artifact, live.
	streams missStreams
	// parallelFrames counts frames walked on the decoupled clock, streamed
	// or stored, so tests can assert which clock actually ran.
	parallelFrames int
	// timeFrame is the machine model's per-frame hook: when non-nil, it
	// times every frame in place of the walk and the dispatch rule. The
	// dynamic tile queue and sort-last set it; tests set it to force the
	// coupled clock or the event-driven reference.
	timeFrame func(*Machine, context.Context, *trace.Scene) error
}

// NewMachine builds a sort-middle machine for the scene, its screen
// statically partitioned by cfg's distribution. The scene's texture table is
// replicated into every node's private texture memory (the paper's model:
// each node holds all textures).
func NewMachine(scene *trace.Scene, cfg Config) (*Machine, error) {
	route := func(c Config) (distrib.Distribution, error) {
		return distrib.New(c.Distribution, scene.Screen, c.Procs, c.TileSize)
	}
	return newMachine(scene, cfg, route, nil)
}

// newMachine builds the machine every model shares: cfg.Procs engines, fed
// frames routed by the distribution route returns for the defaulted cfg
// (its node count need not be cfg.Procs) and timed by timeFrame, or by the
// walk when timeFrame is nil.
func newMachine(scene *trace.Scene, cfg Config, route func(Config) (distrib.Distribution, error), timeFrame func(*Machine, context.Context, *trace.Scene) error) (*Machine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := scene.Validate(); err != nil {
		return nil, err
	}
	if err := checkScreen(scene.Screen); err != nil {
		return nil, err
	}
	d, err := route(cfg)
	if err != nil {
		return nil, err
	}
	mgr, err := scene.BuildTextures()
	if err != nil {
		return nil, err
	}
	return &Machine{
		cfg:       cfg,
		scene:     scene,
		dist:      d,
		rast:      raster.New(scene.Screen),
		mgr:       mgr,
		engines:   newEngines(cfg),
		timeFrame: timeFrame,
	}, nil
}

// newEngines builds cfg's node engines, each with its own cache, bus and
// optional L2: the one engine constructor every machine model shares.
func newEngines(cfg Config) []*engine.Engine {
	engines := make([]*engine.Engine, cfg.Procs)
	for i := range engines {
		e := engine.NewWithPrefetch(i, cfg.SetupCycles, cfg.PrefetchDepth, newCache(cfg), memory.NewBus(cfg.Bus))
		if cfg.HasL2() {
			e.AttachL2(cache.New(cfg.L2Config), memory.NewBus(cfg.MainBus))
		}
		engines[i] = e
	}
	return engines
}

// newCache returns a fresh first-level cache model of cfg's kind.
func newCache(cfg Config) cache.Model {
	switch cfg.CacheKind {
	case CachePerfect:
		return cache.NewPerfect()
	case CacheNone:
		return cache.NewNone()
	}
	return cache.New(cfg.CacheConfig)
}

// EnableFlightRecorder attaches a flight recorder to every node and returns
// it: subsequent runs record each node's cycles as setup/scan/stall/idle
// phase timelines (see internal/telemetry/flight). interval is the bucket
// width in cycles (0 = auto). The recorder is reset at the start of every
// run, so it always holds the most recent run's timeline.
func (m *Machine) EnableFlightRecorder(interval float64) *flight.Recorder {
	m.flight = flight.New(m.cfg.Procs, interval)
	for i, e := range m.engines {
		e.SetRecorder(m.flight.Node(i))
	}
	return m.flight
}

// Run simulates the whole scene and returns the result. Run is
// deterministic; calling it again re-runs from a cold machine.
func (m *Machine) Run() *Result {
	res, err := m.RunContext(context.Background()) //texlint:ignore ctxfirst Run is the documented uncancellable shim over RunContext
	if err != nil {
		// The machine's own scene always passes the sequence checks, and a
		// background context is never cancelled.
		panic(err)
	}
	return res
}

// RunContext is Run with cancellation: the simulation polls ctx between
// batches of work items and returns ctx.Err() mid-frame when it fires.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	results, err := m.RunSequenceContext(ctx, []*trace.Scene{m.scene})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunSequence simulates consecutive frames that share the machine's texture
// table, WITHOUT resetting the caches between frames — the inter-frame
// locality setting of the paper's §9 future-work discussion. Frames are
// separated by an end-of-frame barrier (buffer swap): every node idles
// until the slowest finishes before the next frame's triangles flow.
// Returned results hold per-frame counters and cycles.
func (m *Machine) RunSequence(frames []*trace.Scene) ([]*Result, error) {
	return m.RunSequenceContext(context.Background(), frames) //texlint:ignore ctxfirst RunSequence is the documented uncancellable shim over RunSequenceContext
}

// RunSequenceContext is RunSequence with cancellation; see RunContext.
func (m *Machine) RunSequenceContext(ctx context.Context, frames []*trace.Scene) ([]*Result, error) {
	for i, f := range frames {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", i, err)
		}
		if err := checkTextures(f.Textures, m.scene.Textures, "the machine"); err != nil {
			return nil, fmt.Errorf("core: frame %d %w", i, err)
		}
	}
	if m.artifact != nil {
		if err := m.checkArtifactFrames(frames); err != nil {
			return nil, err
		}
	}
	for _, e := range m.engines {
		e.Reset()
	}
	if m.flight != nil {
		m.flight.Reset()
	}
	prev := make([]NodeResult, m.cfg.Procs)
	frameStart := 0.0
	var results []*Result
	for _, f := range frames {
		if err := m.runFrame(ctx, f); err != nil {
			return nil, err
		}
		res := &Result{Config: m.cfg, Scene: f.Name}
		for i, e := range m.engines {
			cum := nodeResult(e, m.lastFIFOPeaks[i])
			if m.streams != nil {
				// The probe walk, not the engine, ran the caches.
				cum.Cache, cum.L2 = m.streams[i].l1, m.streams[i].l2
			}
			res.add(cum.sub(prev[i]))
			prev[i] = cum
		}
		frameEnd := math.Max(frameStart, res.Cycles)
		res.Cycles = frameEnd - frameStart
		results = append(results, res)
		// End-of-frame barrier: all nodes wait for the buffer swap.
		for i, e := range m.engines {
			e.AdvanceTo(frameEnd)
			if m.flight != nil {
				// The barrier wait is idle time: pad every node to the
				// frame end so phase totals sum to the machine cycles.
				m.flight.Node(i).AdvanceIdle(frameEnd)
			}
		}
		frameStart = frameEnd
	}
	return results, nil
}

// runFrame times frame f: by the machine model's own hook if it has one,
// else by one walk over the frame's work items (stream.go), streamed or
// taken from the attached artifact, on the clock the dispatch rule
// (decoupled, parallel.go) picks from the frame's per-node counts.
func (m *Machine) runFrame(ctx context.Context, f *trace.Scene) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.timeFrame != nil {
		return m.timeFrame(m, ctx, f)
	}
	counts := m.counts(f)
	if m.decoupled(counts) {
		return m.walkDecoupled(ctx, f, counts)
	}
	return m.walkCoupled(ctx, f, counts)
}

// nodeResult snapshots engine e's cumulative counters, with fifoPeak as
// its triangle-FIFO peak.
func nodeResult(e *engine.Engine, fifoPeak int) NodeResult {
	st := e.Stats()
	return NodeResult{
		Fragments:   st.Fragments,
		Triangles:   st.Triangles,
		SetupBound:  st.SetupBound,
		StallCycles: st.StallCycles,
		BusyCycles:  st.BusyCycles,
		FinishTime:  e.Time(),
		Cache:       e.CacheStats(),
		Bus:         e.BusStats(),
		L2:          e.L2Stats(),
		MainBus:     e.MainBusStats(),
		FIFOPeak:    fifoPeak,
	}
}

// add appends node n to the result, summing its fragments and routings and
// raising Cycles to n's finish time.
func (r *Result) add(n NodeResult) {
	r.Nodes = append(r.Nodes, n)
	r.Fragments += n.Fragments
	r.TrianglesRouted += n.Triangles
	r.Cycles = math.Max(r.Cycles, n.FinishTime)
}

// Simulate is the one-call convenience: build a machine and run the scene.
func Simulate(scene *trace.Scene, cfg Config) (*Result, error) {
	return SimulateContext(context.Background(), scene, cfg) //texlint:ignore ctxfirst Simulate is the documented uncancellable shim over SimulateContext
}

// SimulateContext is Simulate with cancellation: long simulations return
// ctx.Err() mid-run when the context fires.
func SimulateContext(ctx context.Context, scene *trace.Scene, cfg Config) (*Result, error) {
	m, err := NewMachine(scene, cfg)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// Speedup runs the scene on 1 processor and on cfg, returning T1/TN along
// with both results. The single-processor baseline keeps every other
// parameter of cfg (cache, bus, buffer) identical, as the paper does.
func Speedup(scene *trace.Scene, cfg Config) (speedup float64, single, parallel *Result, err error) {
	return SpeedupContext(context.Background(), scene, cfg) //texlint:ignore ctxfirst Speedup is the documented uncancellable shim over SpeedupContext
}

// SpeedupContext is Speedup with cancellation.
func SpeedupContext(ctx context.Context, scene *trace.Scene, cfg Config) (speedup float64, single, parallel *Result, err error) {
	base := cfg
	base.Procs = 1
	single, err = SimulateContext(ctx, scene, base)
	if err != nil {
		return 0, nil, nil, err
	}
	parallel, err = SimulateContext(ctx, scene, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	if parallel.Cycles == 0 {
		return 0, single, parallel, nil
	}
	return single.Cycles / parallel.Cycles, single, parallel, nil
}

// walkCoupled times frame f on one worker through the FIFO-coupled clock.
// Any frame may run here; the §8 buffering study with overfull FIFOs and
// flight-recorded runs must. counts are the frame's per-node routed
// triangles.
func (m *Machine) walkCoupled(ctx context.Context, f *trace.Scene, counts []int) error {
	c := newCoupledClock(m.cfg.TriangleBuffer, counts)
	all := make([]bool, m.cfg.Procs)
	for p := range all {
		all[p] = true
	}
	if err := m.walk(ctx, f, c, all); err != nil {
		return err
	}
	m.lastFIFOPeaks = c.peaks(m.lastFIFOPeaks[:0])
	return nil
}

// coupledClock is the FIFO-coupled recurrence: the distributor's cycle as
// it pushes a frame's destinations in submission order, each through push
// and then finish. Destination k of node d is pushed at the distributor's
// cycle t and pops at max(t, ready), where ready is the ceiling of the
// node's previous completion. A push into a full FIFO first blocks: the
// distributor starts a new step at the cycle the FIFO's oldest item pops.
// See DESIGN.md §8 for why this reproduces the event-driven machine
// exactly, same-cycle ordering included.
type coupledClock struct {
	buffer int
	fifos  []coupledFIFO
	t      float64 // distributor cycle
	s      int     // distributor step
}

// newCoupledClock returns the clock of a frame that routes counts[d]
// triangles to node d, each node's FIFO buffer items deep.
func newCoupledClock(buffer int, counts []int) *coupledClock {
	c := &coupledClock{buffer: buffer, fifos: make([]coupledFIFO, len(counts))}
	for d := range c.fifos {
		c.fifos[d].ring = make([]fifoItem, min(buffer, counts[d]))
	}
	return c
}

// push pushes node d's next work item, blocking first while d's FIFO is
// full, and returns the item's index among d's this frame and the cycle d
// pops it.
func (c *coupledClock) push(d int) (k int, pop float64) {
	q := &c.fifos[d]
	q.drain(c.t, c.s)
	if q.pushed-q.popped == c.buffer {
		// Full: block until the oldest item pops.
		c.t, c.s = q.ring[q.popped%len(q.ring)].pop, c.s+1
		q.drain(c.t, c.s)
	}
	return q.pushed, math.Max(c.t, q.ready)
}

// finish records that the item push just returned for node d, popped at
// pop, completes at done.
func (c *coupledClock) finish(d int, pop, done float64) {
	q := &c.fifos[d]
	q.ready = math.Ceil(done)
	q.ring[q.pushed%len(q.ring)] = fifoItem{pop: pop, step: c.s}
	q.pushed++
	q.peak = max(q.peak, q.pushed-q.popped)
}

// peaks appends every node's FIFO peak occupancy to dst.
func (c *coupledClock) peaks(dst []int) []int {
	for d := range c.fifos {
		dst = append(dst, c.fifos[d].peak)
	}
	return dst
}

// coupledFIFO is one node's triangle FIFO on the coupled clock: its ring
// holds the timing of the items pushed but not yet known to have popped,
// never more than the FIFO's capacity.
type coupledFIFO struct {
	ring           []fifoItem
	pushed, popped int     // items pushed; items known to have popped
	ready          float64 // cycle the node is next free to pop
	peak           int
}

// fifoItem is one pushed destination: the cycle the node pops it and the
// distributor step that pushed it.
type fifoItem struct {
	pop  float64
	step int
}

// drain advances q.popped past every item that has popped by the time the
// distributor's step s runs at cycle t: items popped at an earlier cycle,
// and those popped at cycle t that an earlier step pushed. An item pushed
// before cycle t pops at t on the node's re-arm, scheduled before t; one
// pushed at t wakes the node, which pops after the whole step that fed it
// and before the next. Either way it was pushed in an earlier step.
func (q *coupledFIFO) drain(t float64, s int) {
	for q.popped < q.pushed {
		it := &q.ring[q.popped%len(q.ring)]
		if it.pop > t || it.pop == t && it.step == s {
			return
		}
		q.popped++
	}
}
