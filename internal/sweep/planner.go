// The sweep planner: rasterization depends only on (scene, resolution,
// distribution, processors, tile size), so sweep points that differ only in
// cache geometry, bus bandwidth or buffer depth share their raster work. The
// planner partitions a sweep's simulations — baselines included — into
// raster-equivalence classes keyed by Spec.RasterClassKey, rasterizes once
// per multi-member class into a spans-only core.RasterArtifact of the
// sweep's one frame, and fans the artifact out to every member simulation. A 1-processor machine has no
// distribution, so RunWith hands every 1-processor point its baseline's
// machine, and one class holds all of a sweep's baselines and 1-processor
// points. One layer down, a class's cache probes depend only on its cache
// geometry (core.MissGeometry): the planner walks the artifact once per
// class (core.BuildMissStreams), probing every cache geometry of its
// members at once into core.MissStreams, and every member that probes runs
// only the timing pass. A pure-scan member (perfect cache, infinite bus)
// never probes: it adds no geometry to the walk and times the artifact
// alone. No footprint outlives the walk. Replay is
// byte-identical to rasterizing (core's artifact and miss-stream
// contracts), so memoization changes wall-clock only; the RunOpts.NoMemo
// escape hatch exists for benchmarking and distrust, never for correctness.
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
// worth memoizing, its cache geometries, and the artifact and miss streams
// built for it. The first member to acquire builds the artifact and walks
// it for every geometry at once; the others block until that is done.
// Members release after simulating, so each geometry's streams are dropped
// when the last member using them is done, and the artifact with the last
// member of the class.
type classState struct {
	procs, size int
	// memoized is decided once membership is complete (seal): only classes
	// with at least two members pay for an artifact.
	memoized bool
	// cfgs holds one configuration per cache geometry that probes, in
	// first-seen order, and geoms each geometry's index in cfgs; filled by
	// plan.add and only read afterwards.
	cfgs  []core.Config
	geoms map[core.MissGeometry]int

	mu        sync.Mutex
	remaining int   // members not yet released
	refs      []int // per geometry of cfgs, members not yet released
	built     bool
	walked    bool // a probe walk ran and succeeded
	art       *core.RasterArtifact
	streams   []*core.MissStreams // per geometry of cfgs
	err       error
}

// acquire returns the class artifact and the miss streams of cfg's cache
// geometry (nil for a pure-scan machine), building both on first use, on
// up to workers goroutines. Concurrent members block until the build
// completes; a build failure is remembered and returned to all.
func (cs *classState) acquire(ctx context.Context, sc *trace.Scene, dk distrib.Kind, cfg core.Config, workers int) (*core.RasterArtifact, *core.MissStreams, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !cs.built {
		cs.built = true
		cs.art, cs.err = core.BuildRasterArtifact(ctx, []*trace.Scene{sc}, cs.procs, dk,
			cs.size, core.ArtifactOpts{Workers: workers, SpansOnly: true})
		if cs.err == nil && len(cs.cfgs) > 0 {
			cs.streams, cs.err = core.BuildMissStreams(ctx, cs.art, cs.cfgs, workers)
			cs.walked = cs.err == nil
		}
	}
	if cs.err != nil {
		return nil, nil, cs.err
	}
	if i, ok := cs.geoms[cfg.MissGeometry()]; ok {
		return cs.art, cs.streams[i], nil
	}
	return cs.art, nil, nil
}

// release drops one member's references: the last member of geometry g
// frees its streams, and the last member of the class the artifact.
func (cs *classState) release(g core.MissGeometry) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if i, ok := cs.geoms[g]; ok {
		if cs.refs[i]--; cs.refs[i] == 0 && cs.streams != nil {
			cs.streams[i] = nil
		}
	}
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
// cfg with the class it belongs to and returns that class. A machine that
// probes adds its cache geometry to the class's walk.
func (p *plan) add(spec Spec, cfg core.Config) *classState {
	key := spec.RasterClassKey(cfg.Procs, cfg.TileSize)
	cs := p.byKey[key]
	if cs == nil {
		cs = &classState{procs: cfg.Procs, size: cfg.TileSize, geoms: make(map[core.MissGeometry]int)}
		p.byKey[key] = cs
		p.order = append(p.order, cs)
	}
	cs.remaining++
	if g := cfg.MissGeometry(); !g.PureScan {
		i, ok := cs.geoms[g]
		if !ok {
			i = len(cs.cfgs)
			cs.geoms[g] = i
			cs.cfgs = append(cs.cfgs, cfg)
			cs.refs = append(cs.refs, 0)
		}
		cs.refs[i]++
	}
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
		if cs.walked {
			n++
		}
	}
	return n
}
