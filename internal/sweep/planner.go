// The sweep planner: rasterization depends only on (scene, resolution,
// distribution, processors, tile size), so sweep points that differ only in
// cache geometry, bus bandwidth or buffer depth share their raster work. The
// planner partitions a sweep's simulations — baselines included — into
// raster-equivalence classes keyed by Spec.RasterClassKey, and builds one
// spans-only core.RasterArtifact of the sweep's one frame per multi-member
// class, which every member simulation then replays. A 1-processor machine
// has no distribution, so RunWith hands every 1-processor point its
// baseline's machine, and one class holds all of a sweep's baselines and
// 1-processor points. One layer down, a class's cache probes depend only on
// its cache geometry: the planner hands the members' configurations to one
// probe walk per class (core.BuildMissStreams), which returns the artifact
// with a miss stream per cache geometry, and each member times from the
// stream of its own geometry — core alone decides which. A pure-scan member
// (perfect cache, infinite bus) never probes: the walk skips it, and it
// times the artifact alone. No footprint outlives the walk. So the planner
// builds, hands out and drops one artifact per class, and tracks no cache
// geometry. Replay is byte-identical to rasterizing (core's artifact and
// miss-stream contracts), so memoization changes wall-clock only; the
// RunOpts.NoMemo escape hatch exists for benchmarking and distrust, never
// for correctness.
package sweep

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/trace"
)

// PlanStats reports what the planner did with one sweep. texsweep prints
// them as a stderr stat line and embeds them in -json output; they are NOT
// part of RunWith's Result (plan shape depends on RunOpts.NoMemo, which is
// outside the spec's cache identity, so cacheable result documents must not
// carry it).
type PlanStats struct {
	// Points is the number of sweep points (rows).
	Points int `json:"points"`
	// Baselines is the number of one-processor speedup baselines (one per
	// distinct cache/bus/buffer combination).
	Baselines int `json:"baselines"`
	// Classes is the number of raster-equivalence classes across points and
	// baselines. Memoized, every 1-processor point joins its baseline's
	// class, whatever its tile size.
	Classes int `json:"classes"`
	// Rasterizations is how many times a frame was actually rasterized: one
	// per memoized class, one per member everywhere else (so, memoized, one
	// for all baselines and 1-processor points together).
	Rasterizations int `json:"rasterizations"`
	// Saved is Points+Baselines-Rasterizations. Checkpoint-restored work
	// counts toward it: a restored simulation is a rasterization avoided.
	Saved int `json:"saved"`
	// Probes is how many probe walks actually ran: one per memoized class
	// with a member that probes (any machine but a pure-scan one), covering
	// all of the class's cache geometries. A simulation alone in its class
	// probes as it times.
	Probes int `json:"probes"`
	// Checkpointed is how many simulations (rows plus speedup baselines)
	// were restored from the checkpoint store (RunOpts.Rows) instead of
	// running. Always 0 without a store.
	Checkpointed int `json:"checkpointed"`
	// Memoized reports whether memoization was enabled for the run.
	Memoized bool `json:"memoized"`
}

// classState is one raster-equivalence class: its identity, whether it is
// worth memoizing, its members' configurations, and the artifact built for
// it, miss streams included. The first member to acquire builds the
// artifact and walks it for every cache geometry of the class at once; the
// others block until that is done. Members release after simulating, and
// the last one drops the artifact with its streams.
type classState struct {
	procs, size int
	// memoized is decided once membership is complete (seal): only classes
	// with at least two members pay for an artifact.
	memoized bool
	// cfgs holds every member's configuration, filled by plan.add and only
	// read afterwards.
	cfgs []core.Config

	mu        sync.Mutex
	remaining int // members not yet released
	built     bool
	geoms     int // cache geometries the probe walk covered
	art       *core.RasterArtifact
	err       error
}

// acquire returns the class artifact, building it and its miss streams on
// first use, on up to workers goroutines. Concurrent members block until
// the build completes; a build failure is remembered and returned to all.
func (cs *classState) acquire(ctx context.Context, sc *trace.Scene, dk distrib.Kind, workers int) (*core.RasterArtifact, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !cs.built {
		cs.built = true
		var spans *core.RasterArtifact
		spans, cs.err = core.BuildRasterArtifact(ctx, []*trace.Scene{sc}, cs.procs, dk,
			cs.size, core.ArtifactOpts{Workers: workers, SpansOnly: true})
		if cs.err == nil {
			cs.art, cs.geoms, cs.err = core.BuildMissStreams(ctx, spans, cs.cfgs, workers)
		}
	}
	if cs.err != nil {
		return nil, cs.err
	}
	return cs.art, nil
}

// release drops one member's reference: the last member of the class frees
// the artifact and its streams.
func (cs *classState) release() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.remaining--; cs.remaining == 0 {
		cs.art = nil
	}
}

// plan is the class partition of one sweep. Classes are kept in first-seen
// order so every derived output is deterministic.
type plan struct {
	byKey map[string]*classState
	order []*classState
	memo  bool
	stats PlanStats
}

func newPlan(memo bool) *plan {
	return &plan{byKey: make(map[string]*classState), memo: memo}
}

// add registers one simulation (a sweep point or a baseline) of machine
// cfg with the class it belongs to and returns that class.
func (p *plan) add(spec Spec, cfg core.Config) *classState {
	key := spec.RasterClassKey(cfg.Procs, cfg.TileSize)
	cs := p.byKey[key]
	if cs == nil {
		cs = &classState{procs: cfg.Procs, size: cfg.TileSize}
		p.byKey[key] = cs
		p.order = append(p.order, cs)
	}
	cs.remaining++
	cs.cfgs = append(cs.cfgs, cfg)
	return cs
}

// seal closes membership: decides which classes memoize and fills the
// statistics. Must be called before any member simulates.
func (p *plan) seal(points, baselines int) {
	p.stats = PlanStats{Points: points, Baselines: baselines, Memoized: p.memo}
	for _, cs := range p.order {
		cs.memoized = p.memo && cs.remaining >= 2
		p.stats.Classes++
		if cs.memoized {
			p.stats.Rasterizations++
		} else {
			p.stats.Rasterizations += cs.remaining
		}
	}
	p.stats.Saved = points + baselines - p.stats.Rasterizations
}

// probes counts the probe walks that ran. Call it once every member is
// done.
func (p *plan) probes() int {
	n := 0
	for _, cs := range p.order {
		if cs.geoms > 0 {
			n++
		}
	}
	return n
}
