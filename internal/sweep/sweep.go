// Package sweep runs parameter sweeps over the simulator: the cross product
// of processor counts and tile sizes for one scene and distribution, each
// configuration reported as one Row. It is the shared engine behind the
// texsweep CLI (CSV/JSON output) and the texsimd service (sweep jobs), so
// both produce identical rows for identical specs.
package sweep

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/par"
	"repro/internal/resultcache"
	"repro/internal/scene"
	"repro/internal/telemetry/flight"
	"repro/internal/texture"
)

// Spec describes one sweep: a scene plus the machine axes. The zero values
// of optional fields mean paper defaults (see WithDefaults). Spec is the
// canonical cache identity of a sweep — every field participates in the
// result-cache key, so any change re-simulates.
type Spec struct {
	// Scene is a paper benchmark name (see texsim.BenchmarkNames).
	Scene string `json:"scene"`
	// Scale is the scene resolution scale (0 = 0.5, the experiments default).
	Scale float64 `json:"scale,omitempty"`
	// Dist is "block", "sli" or "blockskewed" ("" = "block").
	Dist string `json:"dist,omitempty"`
	// Procs are the processor counts to sweep (empty = 1,4,16,64).
	Procs []int `json:"procs,omitempty"`
	// Sizes are the tile sizes to sweep (empty = 4,8,16,32,64).
	Sizes []int `json:"sizes,omitempty"`
	// Bus is the texture-bus bandwidth in texels per pixel-cycle (0 keeps
	// the zero meaning of BusConfig: infinite).
	Bus float64 `json:"bus,omitempty"`
	// Cache is "real", "perfect" or "none" ("" = "real").
	Cache string `json:"cache,omitempty"`
	// Buffer is the triangle-buffer depth (0 = paper default).
	Buffer int `json:"buffer,omitempty"`
	// Caches sweeps the real-cache capacity axis: per-node cache sizes in
	// KB, each with the paper's geometry (4-way, 64-byte lines). Requires
	// the "real" cache model; empty means the single configured cache.
	Caches []int `json:"caches,omitempty"`
	// Buses sweeps the texture-bus bandwidth axis (texels per pixel-cycle,
	// 0 = infinite). Mutually exclusive with Bus.
	Buses []float64 `json:"buses,omitempty"`
	// Buffers sweeps the triangle-buffer depth axis. Mutually exclusive
	// with Buffer.
	Buffers []int `json:"buffers,omitempty"`
	// Flight enables the simulation flight recorder: every configuration's
	// run is recorded as per-node setup/scan/stall/idle phase timelines and
	// the Result gains one Flight entry (summary + Chrome trace-event JSON)
	// per row. Part of the cache key: a flight sweep is a different result
	// document than a plain one.
	Flight bool `json:"flight,omitempty"`
	// FlightInterval is the recorder bucket width in cycles (0 = auto).
	FlightInterval float64 `json:"flight_interval,omitempty"`
}

// WithDefaults returns the spec with unset axes replaced by the defaults
// documented on Spec.
func (s Spec) WithDefaults() Spec {
	if s.Scale == 0 {
		s.Scale = 0.5
	}
	if s.Dist == "" {
		s.Dist = "block"
	}
	if len(s.Procs) == 0 {
		s.Procs = []int{1, 4, 16, 64}
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []int{4, 8, 16, 32, 64}
	}
	if s.Cache == "" {
		s.Cache = "real"
	}
	return s
}

// Bounds on what one spec may ask for: specs arrive from outside the
// program, and every point, node and cache line costs memory. Each sits far
// above the largest sweep the paper's figures and the benchmark run (72
// points, 64 processors, 128 KB caches).
const (
	maxPoints  = 4096
	maxProcs   = 1024
	maxCacheKB = 4096
)

// Validate rejects specs the simulator would reject, with CLI/API-friendly
// messages. It validates the defaulted form.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if _, err := scene.ByName(s.Scene, s.Scale); err != nil {
		return fmt.Errorf("%w (known: %v)", err, scene.Names())
	}
	if !(s.Scale > 0 && s.Scale <= scene.MaxScale) {
		return fmt.Errorf("scale: %v must be in (0, %d]", s.Scale, scene.MaxScale)
	}
	if _, err := distKind(s.Dist); err != nil {
		return err
	}
	if _, err := cacheKind(s.Cache); err != nil {
		return err
	}
	for _, p := range s.Procs {
		if p <= 0 || p > maxProcs {
			return fmt.Errorf("procs: %d must be in [1, %d]", p, maxProcs)
		}
	}
	for _, w := range s.Sizes {
		if w <= 0 {
			return fmt.Errorf("sizes: %d must be positive", w)
		}
	}
	if s.Bus < 0 {
		return fmt.Errorf("bus: %v must be non-negative", s.Bus)
	}
	if s.Buffer < 0 {
		return fmt.Errorf("buffer: %d must be non-negative", s.Buffer)
	}
	if s.FlightInterval < 0 {
		return fmt.Errorf("flight_interval: %v must be non-negative", s.FlightInterval)
	}
	if s.FlightInterval > 0 && !s.Flight {
		return fmt.Errorf("flight_interval set without flight")
	}
	if len(s.Caches) > 0 && s.Cache != "real" {
		return fmt.Errorf("caches: cache-size axis requires the real cache model, not %q", s.Cache)
	}
	for _, kb := range s.Caches {
		if kb <= 0 || kb > maxCacheKB {
			return fmt.Errorf("caches: %d KB must be in [1, %d]", kb, maxCacheKB)
		}
		if err := cacheConfigKB(kb).Validate(); err != nil {
			return fmt.Errorf("caches: %d KB: %w", kb, err)
		}
	}
	if len(s.Buses) > 0 && s.Bus != 0 {
		return fmt.Errorf("bus and buses are mutually exclusive")
	}
	for _, b := range s.Buses {
		if b < 0 {
			return fmt.Errorf("buses: %v must be non-negative", b)
		}
	}
	if len(s.Buffers) > 0 && s.Buffer != 0 {
		return fmt.Errorf("buffer and buffers are mutually exclusive")
	}
	for _, b := range s.Buffers {
		if b <= 0 {
			return fmt.Errorf("buffers: %d must be positive", b)
		}
	}
	// With every axis at most maxPoints long, Points' product of five
	// lengths stays below 2^60 and cannot wrap.
	for _, n := range []int{len(s.Procs), len(s.Sizes), len(s.Caches), len(s.Buses), len(s.Buffers)} {
		if n > maxPoints {
			return fmt.Errorf("an axis of %d values exceeds the %d-point limit", n, maxPoints)
		}
	}
	if n := s.Points(); n > maxPoints {
		return fmt.Errorf("%d points exceed the %d-point limit", n, maxPoints)
	}
	return nil
}

// cacheConfigKB is the paper's cache geometry at a swept capacity: kb KB,
// 4-way, 64-byte lines.
func cacheConfigKB(kb int) cache.Config {
	return cache.Config{SizeBytes: kb * 1024, Ways: 4, LineBytes: texture.LineBytes}
}

func distKind(name string) (distrib.Kind, error) {
	switch name {
	case "block":
		return distrib.BlockKind, nil
	case "sli":
		return distrib.SLIKind, nil
	case "blockskewed":
		return distrib.BlockSkewedKind, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q (block, sli or blockskewed)", name)
	}
}

// RowHash is the content hash identifying one row's configuration: the
// result-cache hash (sha256 of canonical JSON) of the defaulted spec
// narrowed to that row's point — its processor count and tile size, and its
// value on each of the cache/bus/buffer axes the sweep uses. Progress
// events carry it, whether the row streams live or is replayed from a
// result document, so a consumer can correlate a row with the cached result
// the equivalent single-point sweep would produce.
func (s Spec) RowHash(r Row) string {
	p := s.WithDefaults()
	p.Procs = []int{r.Procs}
	p.Sizes = []int{r.Size}
	if len(p.Caches) > 0 {
		p.Caches = []int{r.CacheKB}
	}
	if len(p.Buses) > 0 {
		p.Buses = []float64{r.Bus}
	}
	if len(p.Buffers) > 0 {
		p.Buffers = []int{r.Buffer}
	}
	key, err := resultcache.Key(p)
	if err != nil {
		return "" // unreachable for a Spec: plain struct, always encodable
	}
	return key
}

// rasterClassProjection is the raster-relevant slice of a Spec: the fields
// that determine rasterization and span demultiplexing, and nothing else.
// Cache, bus, buffer and flight settings deliberately do not appear — sweep
// points differing only there share their raster work.
type rasterClassProjection struct {
	Scene string  `json:"scene"`
	Scale float64 `json:"scale"`
	Dist  string  `json:"dist"`
	Procs int     `json:"procs"`
	Size  int     `json:"size"`
}

// RasterClassKey is the raster-equivalence class of one (procs, size)
// configuration point: the sub-hash of the config hash covering only the
// raster-relevant fields (scene, resolution scale, distribution, processor
// count, tile size). Two points with equal keys are guaranteed to produce
// identical raster+demux output, so the sweep planner rasterizes each class
// once and replays the artifact into every member.
func (s Spec) RasterClassKey(procs, size int) string {
	p := s.WithDefaults()
	key, err := resultcache.Key(rasterClassProjection{
		Scene: p.Scene, Scale: p.Scale, Dist: p.Dist, Procs: procs, Size: size,
	})
	if err != nil {
		return "" // unreachable: plain struct, always encodable
	}
	return key
}

// Points returns the number of sweep points the defaulted spec expands to
// — the row count of its result. The service's admission control uses it
// to tell small interactive sweeps from bulk ones.
func (s Spec) Points() int {
	s = s.WithDefaults()
	n := len(s.Procs) * len(s.Sizes)
	if len(s.Caches) > 0 {
		n *= len(s.Caches)
	}
	if len(s.Buses) > 0 {
		n *= len(s.Buses)
	}
	if len(s.Buffers) > 0 {
		n *= len(s.Buffers)
	}
	return n
}

// rowCheckpointID is the identity a checkpointed row is stored under. The
// point hash alone is not enough: the speedup column divides by the
// (1-processor, Sizes[0]) baseline, so two sweeps sharing a point but
// leading with different tile sizes would produce different row bytes.
// Keying on (point, baseline) makes a checkpointed row interchangeable
// exactly between sweeps where it is byte-identical.
type rowCheckpointID struct {
	Point    string `json:"point"`
	Baseline string `json:"baseline"`
}

// baselinePoint is the baseline configuration a point's speedup compares
// against: one processor, the sweep's leading tile size, the point's
// cache/bus/buffer combination.
func (s Spec) baselinePoint(pt point) point {
	return point{procs: 1, size: s.WithDefaults().Sizes[0],
		cacheKB: pt.cacheKB, bus: pt.bus, buffer: pt.buffer}
}

// rowCheckpointKey is the checkpoint-store key of one sweep point's row.
func (s Spec) rowCheckpointKey(pt point) string {
	key, err := resultcache.Key(rowCheckpointID{
		Point:    s.RowHash(pt.row()),
		Baseline: s.RowHash(s.baselinePoint(pt).row()),
	})
	if err != nil {
		return "" // unreachable: plain struct, always encodable
	}
	return key
}

// baselineCheckpointKey is the checkpoint-store key of one baseline's
// cycles. The "baseline:" prefix keeps it apart from row keys (which are
// bare hex).
func (s Spec) baselineCheckpointKey(pt point) string {
	return "baseline:" + s.RowHash(s.baselinePoint(pt).row())
}

// baselineCheckpoint is the persisted slice of a baseline simulation: only
// its completion time participates in any row (the speedup denominator).
type baselineCheckpoint struct {
	Cycles float64 `json:"cycles"`
}

func cacheKind(name string) (core.CacheKind, error) {
	switch name {
	case "real":
		return core.CacheReal, nil
	case "perfect":
		return core.CachePerfect, nil
	case "none":
		return core.CacheNone, nil
	default:
		return 0, fmt.Errorf("unknown cache model %q (real, perfect or none)", name)
	}
}

// Row is one configuration's results: the texsweep CSV columns, and the row
// shape texsimd sweep jobs return as JSON.
type Row struct {
	Scene          string  `json:"scene"`
	Dist           string  `json:"dist"`
	Procs          int     `json:"procs"`
	Size           int     `json:"size"`
	Cycles         float64 `json:"cycles"`
	Speedup        float64 `json:"speedup"`
	TexelPerFrag   float64 `json:"texel_per_frag"`
	PixelImbalance float64 `json:"pixel_imbalance"`
	StallCycles    float64 `json:"stall_cycles"`
	// Frags is the total fragments (pixels) drawn across nodes.
	Frags uint64 `json:"frags"`
	// CacheKB, Bus and Buffer echo the row's position on the optional
	// cache/bus/buffer axes. Zero — and absent from JSON and CSV — when the
	// sweep does not use the corresponding axis, so rows of axis-free specs
	// are byte-identical to what they were before the axes existed.
	CacheKB int     `json:"cache_kb,omitempty"`
	Bus     float64 `json:"bus,omitempty"`
	Buffer  int     `json:"buffer,omitempty"`
}

// Flight is one configuration's flight recording: the per-node phase
// summary and the Chrome trace-event JSON document (Perfetto-loadable),
// in the same order as the Rows it parallels.
type Flight struct {
	Procs   int                  `json:"procs"`
	Size    int                  `json:"size"`
	Summary []flight.NodeSummary `json:"summary"`
	Trace   json.RawMessage      `json:"trace"`
}

// Result is a completed sweep: the defaulted spec it ran plus its rows in
// deterministic (procs-major, then size) order.
type Result struct {
	Spec Spec  `json:"spec"`
	Rows []Row `json:"rows"`
	// Flights holds one flight recording per row when Spec.Flight is set,
	// in row order.
	Flights []Flight `json:"flights,omitempty"`
	// SimulatedCycles is the total simulated time across all
	// configurations, the numerator of the service's cycles-per-wall-second
	// throughput metric.
	SimulatedCycles float64 `json:"simulated_cycles"`
	// Plan, when set by the caller (texsweep -json does), echoes the
	// planner statistics of the run that produced the result. RunWith never
	// sets it: plan stats depend on RunOpts.NoMemo, which is outside the
	// spec's cache identity, so cacheable result documents must not carry
	// them.
	Plan *PlanStats `json:"plan,omitempty"`
}

// RunOpts tunes how a sweep executes without changing what it computes:
// rows are byte-identical at every setting, so none of these fields
// participate in Spec's result-cache identity.
type RunOpts struct {
	// Parallelism bounds how many configurations simulate concurrently
	// (<=0 = sequential). It is also the sweep's total worker budget.
	Parallelism int
	// NodeParallelism bounds the workers each simulation uses to build its
	// frames and replay its node pipelines (see
	// core.Machine.SetNodeParallelism): 1 is one worker, and 0 shares the
	// worker budget — speedup baselines and points run in one pool, and
	// when fewer simulations than budget remain to run, the spare workers
	// go to each machine (budget / simulations, at least 1). A sweep of
	// many configurations therefore parallelizes across configurations; a
	// sweep of one big configuration runs it beside its baseline, each
	// parallelized across its nodes. A raster class's artifact and its one
	// probe walk (its miss streams) are built as one simulation alone —
	// with 0, on the whole budget — because every member waits for them.
	// The walk runs one task per node, probing every cache geometry; over
	// fewer nodes than workers, each task's own helper goroutine generates
	// the node's footprints ahead of its probes. The setting never changes
	// which clock times a frame, nor any result.
	NodeParallelism int
	// Progress, when non-nil, observes each configuration's lifecycle (see
	// ProgressSink). Off costs one nil check per row; rows and results are
	// byte-identical either way.
	Progress ProgressSink
	// NoMemo disables cross-configuration raster memoization: every
	// simulation rasterizes from scratch, as sweeps always did before the
	// planner. Rows are byte-identical either way (the planner's replay
	// contract); the knob exists as an escape hatch and for benchmarking
	// the planner itself.
	NoMemo bool
	// Plan, when non-nil, receives the planner's statistics for the run.
	Plan *PlanStats
	// Rows, when non-nil, is the row-level checkpoint store: every completed
	// row (and speedup baseline) is persisted under its content key, and a
	// later run of a sweep containing the same point restores the row
	// instead of simulating it. Restored rows are byte-identical to
	// simulated ones (rows round-trip exactly through JSON), so a resumed
	// sweep's final output matches an uninterrupted run byte for byte.
	// Checkpoint keys are opaque strings; pass a resultcache namespace view
	// (Cache.Namespace) to keep them apart from full-result entries.
	// Ignored when Spec.Flight is set — flight recordings are not
	// checkpointed, and a partial restore would break the rows/flights
	// parallelism.
	Rows RowStore
}

// RowStore persists per-row sweep checkpoints. Both methods must be safe
// for concurrent use (rows complete on parallel workers); Put failures are
// an availability loss, never a sweep failure. *resultcache.Cache and its
// namespace views satisfy the interface.
type RowStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// ProgressSink observes a sweep's per-row lifecycle. Rows complete on
// parallel workers, so implementations must be safe for concurrent use.
// Callbacks run on the simulation hot path's row granularity — they should
// not block.
type ProgressSink interface {
	// RowStarted fires when row `index` of `total` begins simulating.
	RowStarted(index, total, procs, size int, configHash string)
	// RowDone fires when the row's results are final.
	RowDone(index, total int, row Row, configHash string)
}

// RowCachedSink is optionally implemented by a ProgressSink to distinguish
// rows restored from a checkpoint store (RunOpts.Rows) from freshly
// simulated ones. A sink without it sees the restored rows as an
// instantaneous RowStarted/RowDone pair instead. Restored rows are
// reported in index order before any simulation starts.
type RowCachedSink interface {
	RowCached(index, total int, row Row, configHash string)
}

// nodeParallelism resolves the per-machine worker bound for a pool of
// nJobs simulations under the shared-budget rule documented on RunOpts.
func (o RunOpts) nodeParallelism(nJobs int) int {
	if o.NodeParallelism != 0 {
		return o.NodeParallelism
	}
	budget := o.Parallelism
	if budget <= 1 {
		// Sequential sweep: the whole budget concept is moot; let each
		// machine use its own default (GOMAXPROCS).
		return 0
	}
	configPar := budget
	if nJobs < configPar {
		configPar = nJobs
	}
	if configPar < 1 {
		configPar = 1
	}
	nodePar := budget / configPar
	if nodePar < 1 {
		nodePar = 1
	}
	return nodePar
}

// simulation is one unit of a sweep's pool: a speedup baseline (i indexes
// the combos) or a sweep point (i indexes the points).
type simulation struct {
	baseline bool
	i        int
}

// simulations lists what still runs, in dispatch order: every point that
// was not restored, preceded by its baseline when that was not checkpointed
// and no earlier point needed it, so the first row waits for one baseline,
// not for all. The pool's one worker share is counted over this list, so
// restored or skipped work never shrinks the share of what is left (a
// resumed sweep's last point on one worker of four).
func simulations(points []point, haveBase, done []bool) []simulation {
	listed := slices.Clone(haveBase)
	var sims []simulation
	for i, d := range done {
		if d {
			continue
		}
		if ci := points[i].combo; !listed[ci] {
			listed[ci] = true
			sims = append(sims, simulation{baseline: true, i: ci})
		}
		sims = append(sims, simulation{i: i})
	}
	return sims
}

// rowJoin is the rendezvous of each row's point and its speedup baseline in
// the pool: a row is published once both are done, by whichever of the two
// finishes second.
type rowJoin struct {
	mu         sync.Mutex
	points     []point
	baseCycles []float64 // each combo's baseline cycles, where haveBase
	haveBase   []bool
	waiting    []bool // point simulated before its baseline
}

// pointDone records that point i finished simulating. It returns the
// point's baseline cycles when they are known; otherwise the point waits
// for baselineDone to hand it out.
func (j *rowJoin) pointDone(i int) (baseCycles float64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ci := j.points[i].combo
	if !j.haveBase[ci] {
		j.waiting[i] = true
		return 0, false
	}
	return j.baseCycles[ci], true
}

// baselineDone records combo ci's baseline cycles and returns the points
// that finished before it, each now ready to publish.
func (j *rowJoin) baselineDone(ci int, cycles float64) (ready []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.baseCycles[ci], j.haveBase[ci] = cycles, true
	for i, w := range j.waiting {
		if w && j.points[i].combo == ci {
			j.waiting[i] = false
			ready = append(ready, i)
		}
	}
	return ready
}

// point is one sweep point: a (procs, size) configuration at one position
// on the optional cache/bus/buffer axes. combo indexes the speedup baseline
// it compares against.
type point struct {
	procs, size     int
	cacheKB, buffer int
	bus             float64
	combo           int
}

// row is the position of pt's row on every sweep axis: the fields of its
// Row that RowHash reads.
func (pt point) row() Row {
	return Row{Procs: pt.procs, Size: pt.size, CacheKB: pt.cacheKB, Bus: pt.bus, Buffer: pt.buffer}
}

// RunWith is the sweep runner: it expands the spec's axes into points,
// partitions points and baselines into raster-equivalence classes (the
// planner, planner.go), and simulates everything in one pool under one
// worker budget.
// Row order is independent of parallelism and memoization; cancelling ctx
// abandons unstarted configurations and returns ctx.Err().
func RunWith(ctx context.Context, spec Spec, opts RunOpts) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dk, _ := distKind(spec.Dist)
	ck, _ := cacheKind(spec.Cache)

	b, err := scene.ByName(spec.Scene, spec.Scale)
	if err != nil {
		return nil, err
	}
	sc, err := b.Build()
	if err != nil {
		return nil, err
	}

	// Axis singletons: a scalar spec is a one-entry axis, so the axis-free
	// sweep is the degenerate case of the same code path.
	cachesAxis := spec.Caches
	if len(cachesAxis) == 0 {
		cachesAxis = []int{0}
	}
	busesAxis := spec.Buses
	if len(busesAxis) == 0 {
		busesAxis = []float64{spec.Bus}
	}
	buffersAxis := spec.Buffers
	if len(buffersAxis) == 0 {
		buffersAxis = []int{spec.Buffer}
	}

	// Baseline combos: the speedup column compares each row against the
	// one-processor machine with every non-raster parameter identical, so
	// each distinct (cache, bus, buffer) combination needs its own baseline.
	type combo struct {
		cacheKB, buffer int
		bus             float64
	}
	var combos []combo
	comboIdx := make(map[combo]int)
	for _, kb := range cachesAxis {
		for _, bus := range busesAxis {
			for _, buf := range buffersAxis {
				c := combo{cacheKB: kb, buffer: buf, bus: bus}
				if _, ok := comboIdx[c]; !ok {
					comboIdx[c] = len(combos)
					combos = append(combos, c)
				}
			}
		}
	}

	var points []point
	for _, p := range spec.Procs {
		for _, w := range spec.Sizes {
			for _, kb := range cachesAxis {
				for _, bus := range busesAxis {
					for _, buf := range buffersAxis {
						points = append(points, point{
							procs: p, size: w, cacheKB: kb, bus: bus, buffer: buf,
							combo: comboIdx[combo{cacheKB: kb, buffer: buf, bus: bus}],
						})
					}
				}
			}
		}
	}

	mkConfig := func(procs, size int, c combo) core.Config {
		cfg := core.Config{
			Procs:          procs,
			Distribution:   dk,
			TileSize:       size,
			CacheKind:      ck,
			Bus:            memory.BusConfig{TexelsPerCycle: c.bus},
			TriangleBuffer: c.buffer,
		}
		if c.cacheKB > 0 {
			cfg.CacheConfig = cacheConfigKB(c.cacheKB)
		}
		return cfg
	}

	// Row-level checkpoint restore. Before anything simulates (or even
	// enters the planner's class partition), every point and baseline is
	// looked up in the checkpoint store; restored work is excluded from the
	// partition so classes are sized — and memoization decided — by what
	// actually still runs. Rows round-trip exactly through JSON (Go floats
	// encode shortest-round-trip), so a resumed sweep's output is
	// byte-identical to an uninterrupted run. Flight sweeps never
	// checkpoint: recordings are not persisted, and a partially restored
	// flights slice would desynchronize from the rows.
	useRows := opts.Rows != nil && !spec.Flight
	rows := make([]Row, len(points))
	done := make([]bool, len(points))
	checkpointed := 0
	if useRows {
		for i, pt := range points {
			data, ok := opts.Rows.Get(spec.rowCheckpointKey(pt))
			if !ok {
				continue
			}
			var r Row
			if json.Unmarshal(data, &r) != nil || r.Procs != pt.procs || r.Size != pt.size {
				continue // corrupt or stale entry: re-simulate
			}
			rows[i] = r
			done[i] = true
			checkpointed++
		}
	}

	// A baseline only runs when some surviving point still divides by it,
	// and even then its cycles may be checkpointed from an earlier run.
	needBase := make([]bool, len(combos))
	for i, pt := range points {
		if !done[i] {
			needBase[pt.combo] = true
		}
	}
	baseCycles := make([]float64, len(combos))
	haveBase := make([]bool, len(combos))
	comboPoint := func(ci int) point {
		return point{cacheKB: combos[ci].cacheKB, bus: combos[ci].bus, buffer: combos[ci].buffer}
	}
	if useRows {
		for ci := range combos {
			if !needBase[ci] {
				continue
			}
			data, ok := opts.Rows.Get(spec.baselineCheckpointKey(comboPoint(ci)))
			if !ok {
				continue
			}
			var bc baselineCheckpoint
			if json.Unmarshal(data, &bc) == nil && bc.Cycles > 0 {
				baseCycles[ci] = bc.Cycles
				haveBase[ci] = true
				checkpointed++
			}
		}
	}

	// Partition every surviving simulation into raster-equivalence classes.
	// With one processor every tile maps to node 0 and the lone node never
	// waits on its triangle buffer, so a 1-processor machine gives the same
	// row whatever its tile size (TestSingleProcCyclesIgnoreRouting). When
	// memoizing, every 1-processor point therefore runs as its combo's
	// baseline machine, and one (1, Sizes[0]) class serves all of them and
	// all baselines; rows still echo each point's own size. NoMemo keeps
	// every point's own tile size, an independent reference.
	sims := simulations(points, haveBase, done)
	simConfig := func(sim simulation) core.Config {
		if sim.baseline {
			return mkConfig(1, spec.Sizes[0], combos[sim.i])
		}
		pt := points[sim.i]
		if pt.procs == 1 && !opts.NoMemo {
			pt.size = spec.Sizes[0]
		}
		return mkConfig(pt.procs, pt.size, combos[pt.combo])
	}
	pl := newPlan(!opts.NoMemo)
	classes := make([]*classState, len(sims))
	for k, sim := range sims {
		classes[k] = pl.add(spec, simConfig(sim))
	}
	pl.seal(len(points), len(combos))
	pl.stats.Checkpointed = checkpointed

	// Restored rows replay into the progress stream in index order before
	// any simulation starts, so a resumed job's consumers see the completed
	// prefix immediately (marked as cache hits by sinks that distinguish).
	if opts.Progress != nil {
		for i, pt := range points {
			if !done[i] {
				continue
			}
			hash := spec.RowHash(pt.row())
			if cs, ok := opts.Progress.(RowCachedSink); ok {
				cs.RowCached(i, len(points), rows[i], hash)
			} else {
				opts.Progress.RowStarted(i, len(points), pt.procs, pt.size, hash)
				opts.Progress.RowDone(i, len(points), rows[i], hash)
			}
		}
	}

	// runOne simulates one configuration, replaying the class artifact when
	// the planner memoized the class, from the miss streams of its cache
	// geometry unless it is a pure-scan machine. Every member blocks on the
	// class artifact and its probe walk, so both run on the whole budget, as
	// if their simulation ran alone. Each worker carves the work list from
	// slabs of its own, so a build on every worker allocates a few large
	// blocks, not one piece per triangle.
	probePar := opts.nodeParallelism(1)
	nodePar := opts.nodeParallelism(len(sims))
	runOne := func(cfg core.Config, cs *classState, flightInterval float64, wantFlight bool) (*core.Result, *flight.Recorder, error) {
		m, err := core.NewMachine(sc, cfg)
		if err != nil {
			return nil, nil, err
		}
		m.SetNodeParallelism(nodePar)
		if cs.memoized {
			art, ms, err := cs.acquire(ctx, sc, dk, cfg, probePar)
			if err != nil {
				return nil, nil, err
			}
			defer cs.release(cfg.MissGeometry())
			if err := m.SetRasterArtifact(art); err != nil {
				return nil, nil, err
			}
			if err := m.SetMissStreams(ms); err != nil {
				return nil, nil, err
			}
		}
		var rec *flight.Recorder
		if wantFlight {
			rec = m.EnableFlightRecorder(flightInterval)
		}
		res, err := m.RunContext(ctx)
		if err != nil {
			return nil, nil, err
		}
		return res, rec, nil
	}

	// publish completes row i once both its point and its baseline are
	// done, with the baseline's cycles: it divides in the speedup, banks the
	// row and reports it.
	publish := func(i int, baseCycles float64) {
		pt := points[i]
		rows[i].Speedup = baseCycles / rows[i].Cycles
		if useRows {
			if data, err := json.Marshal(rows[i]); err == nil {
				// Best effort: a failed checkpoint write costs a future
				// resume nothing but this row's re-simulation.
				_ = opts.Rows.Put(spec.rowCheckpointKey(pt), data)
			}
		}
		if opts.Progress != nil {
			opts.Progress.RowDone(i, len(points), rows[i], spec.RowHash(pt.row()))
		}
	}

	// One pool runs every simulation that still runs, each baseline
	// dispatched just ahead of the first point dividing by it, each on the
	// one worker share nodePar.
	join := &rowJoin{points: points, baseCycles: baseCycles, haveBase: haveBase,
		waiting: make([]bool, len(points))}
	var flights []Flight
	if spec.Flight {
		flights = make([]Flight, len(points))
	}
	runBaseline := func(ci int, cfg core.Config, cs *classState) error {
		res, _, err := runOne(cfg, cs, 0, false)
		if err != nil {
			return err
		}
		if useRows {
			if data, err := json.Marshal(baselineCheckpoint{Cycles: res.Cycles}); err == nil {
				// Best effort, like the row checkpoint.
				_ = opts.Rows.Put(spec.baselineCheckpointKey(comboPoint(ci)), data)
			}
		}
		for _, i := range join.baselineDone(ci, res.Cycles) {
			publish(i, res.Cycles)
		}
		return nil
	}
	runPoint := func(i int, cfg core.Config, cs *classState) error {
		pt := points[i]
		if opts.Progress != nil {
			opts.Progress.RowStarted(i, len(points), pt.procs, pt.size, spec.RowHash(pt.row()))
		}
		res, rec, err := runOne(cfg, cs, spec.FlightInterval, spec.Flight)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		if rec != nil {
			tr, err := rec.Trace()
			if err != nil {
				return fmt.Errorf("%s: rendering flight trace: %w", cfg.Name(), err)
			}
			flights[i] = Flight{Procs: pt.procs, Size: pt.size,
				Summary: rec.Summary(), Trace: tr}
		}
		var stall float64
		for n := range res.Nodes {
			stall += res.Nodes[n].StallCycles
		}
		rows[i] = Row{
			Scene:          sc.Name,
			Dist:           spec.Dist,
			Procs:          pt.procs,
			Size:           pt.size,
			Cycles:         res.Cycles,
			TexelPerFrag:   res.TexelToFragment(),
			PixelImbalance: res.PixelImbalance(),
			StallCycles:    stall,
			Frags:          res.Fragments,
		}
		// Axis echo columns appear only when the axis itself is in use, so
		// axis-free rows keep their historical bytes.
		if len(spec.Caches) > 0 {
			rows[i].CacheKB = pt.cacheKB
		}
		if len(spec.Buses) > 0 {
			rows[i].Bus = pt.bus
		}
		if len(spec.Buffers) > 0 {
			rows[i].Buffer = pt.buffer
		}
		if base, ok := join.pointDone(i); ok {
			publish(i, base)
		}
		return nil
	}
	err = par.ForEach(ctx, opts.Parallelism, len(sims), func(k int) error {
		sim := sims[k]
		if sim.baseline {
			return runBaseline(sim.i, simConfig(sim), classes[k])
		}
		return runPoint(sim.i, simConfig(sim), classes[k])
	})
	if err != nil {
		return nil, err
	}
	if opts.Plan != nil {
		pl.stats.Probes = pl.probes()
		*opts.Plan = pl.stats
	}
	out := &Result{Spec: spec, Rows: rows, Flights: flights}
	for i := range rows {
		out.SimulatedCycles += rows[i].Cycles
	}
	return out, nil
}

// CSVHeader is the column order of WriteCSV, matching Row's fields. Sweeps
// using the cache/bus/buffer axes gain three trailing columns (cache_kb,
// bus, buffer); axis-free sweeps keep exactly these.
var CSVHeader = []string{"scene", "dist", "procs", "size", "cycles",
	"speedup", "texel_per_frag", "pixel_imbalance", "stall_cycles", "frags"}

// csvAxisColumns are the trailing columns added when any row carries axis
// echo fields.
var csvAxisColumns = []string{"cache_kb", "bus", "buffer"}

// WriteCSV writes the rows as RFC-4180 CSV with a header line — the
// texsweep output format.
func WriteCSV(w io.Writer, rows []Row) error {
	axes := false
	for i := range rows {
		if rows[i].CacheKB != 0 || rows[i].Bus != 0 || rows[i].Buffer != 0 {
			axes = true
			break
		}
	}
	header := CSVHeader
	if axes {
		header = append(append([]string(nil), CSVHeader...), csvAxisColumns...)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Scene, r.Dist,
			strconv.Itoa(r.Procs), strconv.Itoa(r.Size),
			strconv.FormatFloat(r.Cycles, 'f', 0, 64),
			strconv.FormatFloat(r.Speedup, 'f', 2, 64),
			strconv.FormatFloat(r.TexelPerFrag, 'f', 3, 64),
			strconv.FormatFloat(r.PixelImbalance, 'f', 4, 64),
			strconv.FormatFloat(r.StallCycles, 'f', 0, 64),
			strconv.FormatUint(r.Frags, 10),
		}
		if axes {
			rec = append(rec,
				strconv.Itoa(r.CacheKB),
				strconv.FormatFloat(r.Bus, 'f', -1, 64),
				strconv.Itoa(r.Buffer),
			)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the full result (spec + rows) as one indented JSON
// document, byte-identical to what the texsimd result endpoint serves.
func WriteJSON(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
