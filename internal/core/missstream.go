// Miss streams: probe once, time many. The paper's node hides memory
// latency behind the prefetch FIFO and models only bandwidth, so whether a
// texel access hits depends on the order of the node's own accesses, never
// on time. A node's L1/L2 hit-miss sequence is therefore a function of
// (raster artifact, cache geometry, L2 geometry) alone; the bus ratio,
// triangle buffer, setup cost and prefetch depth change only the timing.
// BuildMissStreams runs the probe pass once per artifact and cache geometry
// (engine.Prober.AppendMisses, each node on its own), and every machine the
// streams are attached to runs only the timing pass
// (engine.Engine.ProcessMisses) — the one artifact-replay path, on both
// frame drivers.
//
// Equivalence contract: a machine timing from miss streams gives results
// byte-identical to rasterizing in memory (cycles, counters, cache
// statistics, FIFO peaks and flight traces), by engine.ProcessMisses's
// contract; the cache and L2 statistics are the probe pass's, snapshotted
// at every frame boundary because RunSequence reports per-frame deltas.
//
// The dynamic tile queue and sort-last never take an artifact, so they
// never time from streams: which engine times a work item depends on when
// the engines free up, so a per-engine access order — and with it a
// per-engine miss stream — is not known before timing.
package core

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/par"
)

// MissGeometry is the part of a Config that a miss stream depends on: the
// cache models, plus whether the engine is in the pure-scan regime (perfect
// cache on an infinite bus), which never probes at all. Two configurations
// with equal geometries share their miss streams.
type MissGeometry struct {
	Kind     CacheKind
	Cache    cache.Config // zero unless Kind is CacheReal
	L2       cache.Config // zero without an L2
	PureScan bool
}

// MissGeometry returns the geometry cfg's miss streams are built for.
func (c Config) MissGeometry() MissGeometry {
	c = c.withDefaults()
	g := MissGeometry{Kind: c.CacheKind, L2: c.L2Config}
	if c.CacheKind == CacheReal {
		g.Cache = c.CacheConfig
	}
	g.PureScan = c.CacheKind == CachePerfect && c.Bus.Infinite()
	return g
}

// MissStreams is the probe pass's output for one raster artifact and one
// cache geometry: per node, the miss stream of every work item in every
// frame. Build it with BuildMissStreams and attach it with
// Machine.SetMissStreams; it is read-only afterwards, so any number of
// machines may time from it concurrently.
type MissStreams struct {
	art   *RasterArtifact
	procs int
	geom  MissGeometry
	nodes []nodeStream
}

// nodeStream is one node's miss stream. Work items are numbered across
// frames in frame order, each frame's in submission order.
type nodeStream struct {
	ops []uint32
	// ends[i+1] is the end offset of item i's ops; ends[0] is 0.
	ends []int
	// first[fi] is the number of the node's first item of frame fi.
	first []int
	// frames holds the node's cumulative cache statistics at the end of
	// each frame.
	frames []frameStats
}

// frameStats is a node's cumulative cache and L2 statistics at a frame
// boundary.
type frameStats struct {
	l1, l2 cache.Stats
}

// BuildMissStreams runs the probe pass for artifact a under cfg's cache
// geometry, each node's stream on its own, on up to workers goroutines
// (<=0 = one per node). The artifact needs footprint streams unless cfg is
// a pure-scan machine, whose streams hold no ops.
func BuildMissStreams(ctx context.Context, a *RasterArtifact, cfg Config, workers int) (*MissStreams, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.Procs != cfg.Procs {
		return nil, fmt.Errorf("core: artifact is for %d nodes, configuration has %d", a.Procs, cfg.Procs)
	}
	g := cfg.MissGeometry()
	if !g.PureScan && !a.HasFootprints {
		return nil, fmt.Errorf("core: spans-only artifact cannot be probed by a %s cache (footprint streams required)", cfg.CacheKind)
	}
	s := &MissStreams{art: a, procs: cfg.Procs, geom: g, nodes: make([]nodeStream, cfg.Procs)}
	if workers <= 0 {
		workers = cfg.Procs
	}
	err := par.ForEach(ctx, workers, cfg.Procs, func(p int) error {
		ns := &s.nodes[p]
		probe := engine.Prober{L1: newCache(cfg)}
		if cfg.HasL2() {
			probe.L2 = cache.New(cfg.L2Config)
		}
		ns.ends = []int{0}
		for _, f := range a.Frames {
			ns.first = append(ns.first, len(ns.ends)-1)
			for k, d := range f.perNode[p] {
				if k%ctxPollTriangles == 0 && k > 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				if !g.PureScan {
					ns.ops = probe.AppendMisses(ns.ops, &d.Work)
				}
				ns.ends = append(ns.ends, len(ns.ops))
			}
			st := frameStats{l1: probe.L1.Stats()}
			if probe.L2 != nil {
				st.l2 = probe.L2.Stats()
			}
			ns.frames = append(ns.frames, st)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ops returns node p's ops for its k-th work item of frame fi.
func (s *MissStreams) ops(p, fi, k int) []uint32 {
	ns := &s.nodes[p]
	i := ns.first[fi] + k
	return ns.ops[ns.ends[i]:ns.ends[i+1]]
}

// stats returns node p's cumulative cache and L2 statistics at the end of
// frame fi.
func (s *MissStreams) stats(p, fi int) (l1, l2 cache.Stats) {
	st := s.nodes[p].frames[fi]
	return st.l1, st.l2
}

// SetMissStreams attaches miss streams built for the machine's attached
// raster artifact and its cache geometry: subsequent runs time from them
// instead of probing, with byte-identical results. A machine with an
// artifact attached and no streams builds its own on its next run. Pass nil
// to detach.
func (m *Machine) SetMissStreams(s *MissStreams) error {
	if s == nil {
		m.streams = nil
		return nil
	}
	switch {
	case m.artifact == nil:
		return fmt.Errorf("core: miss streams need a raster artifact attached first")
	case s.art != m.artifact:
		return fmt.Errorf("core: miss streams were built from another raster artifact")
	case s.procs != m.cfg.Procs:
		return fmt.Errorf("core: miss streams are for %d nodes, machine has %d", s.procs, m.cfg.Procs)
	case s.geom != m.cfg.MissGeometry():
		return fmt.Errorf("core: miss streams are for cache geometry %+v, machine has %+v", s.geom, m.cfg.MissGeometry())
	}
	m.streams = s
	return nil
}

// process times node p's k-th work item of the current frame, d, arriving
// at arrival, and returns its completion time: the one step every driver
// takes per work item. With an artifact attached it runs the timing pass
// on the item's miss stream; a frame built in memory is timed live.
func (m *Machine) process(p, k int, d *ArtifactDest, arrival float64) float64 {
	e := m.engines[p]
	if m.streams != nil {
		return e.ProcessMisses(arrival, d.Work.Segments, m.streams.ops(p, m.frame, k))
	}
	return d.process(e, m.mgr, arrival)
}
