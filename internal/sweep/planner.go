// The sweep planner: rasterization depends only on (scene, resolution,
// distribution, processors, tile size), so sweep points that differ only in
// cache geometry, bus bandwidth or buffer depth share their raster work. The
// planner partitions a sweep's simulations — baselines included — into
// raster-equivalence classes keyed by Spec.RasterClassKey, rasterizes once
// per multi-member class into a core.RasterArtifact, and fans the artifact
// out to every member simulation. One layer down, a class's cache probes
// depend only on its cache geometry (core.MissGeometry): the planner probes
// the artifact once per geometry that two or more members share into
// core.MissStreams, and those members run only the timing pass; a member
// alone in its geometry probes as it times. Replay is byte-identical to
// rasterizing (core's artifact and miss-stream contracts), so memoization
// changes wall-clock only; the RunOpts.NoMemo escape hatch exists for
// benchmarking and distrust, never for correctness.
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
	// baselines.
	Classes int `json:"classes"`
	// Rasterizations is how many times a frame was actually rasterized: one
	// per memoized class, one per member everywhere else.
	Rasterizations int `json:"rasterizations"`
	// Saved is Points+Baselines-Rasterizations. Checkpoint-restored work
	// counts toward it: a restored simulation is a rasterization avoided.
	Saved int `json:"saved"`
	// Probes is how many miss-stream probe passes actually ran: one per
	// cache geometry shared by two or more members of a memoized class. A
	// simulation alone in its geometry or class probes as it times.
	Probes int `json:"probes"`
	// Checkpointed is how many simulations (rows plus speedup baselines)
	// were restored from the checkpoint store (RunOpts.Rows) instead of
	// running. Always 0 without a store.
	Checkpointed int `json:"checkpointed"`
	// Memoized reports whether memoization was enabled for the run.
	Memoized bool `json:"memoized"`
}

// classState is one raster-equivalence class: its identity, whether it is
// worth memoizing, the lazily built shared artifact and, per cache geometry,
// the lazily built shared miss streams. The mutex guards artifact
// build-once and the member refcount; members acquire before simulating and
// release after, so the artifact and each stream are dropped as soon as the
// last member using them is done.
type classState struct {
	procs, size int
	// spansOnly is true when every member is a pure-scan machine (perfect
	// cache, infinite bus), which never consults texel addresses — the
	// artifact then skips footprint generation entirely.
	spansOnly bool
	// memoized is decided once membership is complete (seal): only classes
	// with at least two members pay for an artifact.
	memoized bool
	// streams is filled by plan.add and only read afterwards.
	streams map[core.MissGeometry]*streamState

	mu        sync.Mutex
	remaining int
	built     bool
	art       *core.RasterArtifact
	err       error
}

// streamState is one cache geometry's miss streams within a class, with the
// same build-once and refcount discipline as the class artifact.
type streamState struct {
	shared    bool // at least two members (decided by seal): worth a stream
	mu        sync.Mutex
	remaining int
	built     bool
	ms        *core.MissStreams
	err       error
}

// acquire returns the class artifact and, if cfg's cache geometry is
// shared, its miss streams, building each on first use, on up to workers
// goroutines. Concurrent members block until a build completes; a build
// failure is remembered and returned to all.
func (cs *classState) acquire(ctx context.Context, sc *trace.Scene, dk distrib.Kind, cfg core.Config, workers int) (*core.RasterArtifact, *core.MissStreams, error) {
	cs.mu.Lock()
	if !cs.built {
		cs.art, cs.err = core.BuildRasterArtifact(ctx, []*trace.Scene{sc}, cs.procs, dk,
			cs.size, core.ArtifactOpts{Workers: workers, SpansOnly: cs.spansOnly})
		cs.built = true
	}
	art, err := cs.art, cs.err
	cs.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	ss := cs.streams[cfg.MissGeometry()]
	if !ss.shared {
		return art, nil, nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.built {
		ss.ms, ss.err = core.BuildMissStreams(ctx, art, cfg, workers)
		ss.built = true
	}
	return art, ss.ms, ss.err
}

// release drops one member's references; the last member using the streams
// of geometry g frees them, and the last member of the class frees the
// artifact.
func (cs *classState) release(g core.MissGeometry) {
	ss := cs.streams[g]
	ss.mu.Lock()
	if ss.remaining--; ss.remaining == 0 {
		ss.ms = nil
	}
	ss.mu.Unlock()
	cs.mu.Lock()
	cs.remaining--
	if cs.remaining == 0 {
		cs.art = nil
	}
	cs.mu.Unlock()
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
// cfg with the class it belongs to and returns that class. cfg narrows the
// class's spans-only eligibility — one member that consults addresses
// forces full footprints for the whole class — and joins its cache
// geometry's streams.
func (p *plan) add(spec Spec, cfg core.Config) *classState {
	key := spec.RasterClassKey(cfg.Procs, cfg.TileSize)
	cs := p.byKey[key]
	if cs == nil {
		cs = &classState{procs: cfg.Procs, size: cfg.TileSize, spansOnly: true,
			streams: make(map[core.MissGeometry]*streamState)}
		p.byKey[key] = cs
		p.order = append(p.order, cs)
	}
	cs.remaining++
	g := cfg.MissGeometry()
	if !g.PureScan {
		cs.spansOnly = false
	}
	ss := cs.streams[g]
	if ss == nil {
		ss = &streamState{}
		cs.streams[g] = ss
	}
	ss.remaining++
	return cs
}

// seal closes membership: decides which classes memoize and fills the
// statistics. Must be called before any member simulates.
func (p *plan) seal(points, baselines int) {
	p.stats = PlanStats{Points: points, Baselines: baselines, Memoized: p.memo}
	for _, cs := range p.order {
		cs.memoized = p.memo && cs.remaining >= 2
		for _, ss := range cs.streams {
			ss.shared = ss.remaining >= 2
		}
		p.stats.Classes++
		if cs.memoized {
			p.stats.Rasterizations++
		} else {
			p.stats.Rasterizations += cs.remaining
		}
	}
	p.stats.Saved = points + baselines - p.stats.Rasterizations
}

// probes counts the probe passes that ran. Call it once every member is
// done.
func (p *plan) probes() int {
	n := 0
	for _, cs := range p.order {
		for _, ss := range cs.streams {
			if ss.built && ss.err == nil {
				n++
			}
		}
	}
	return n
}
