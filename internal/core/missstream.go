// Miss streams: probe once, time many. The paper's node hides memory
// latency behind the prefetch FIFO and models only bandwidth, so whether a
// texel access hits depends on the order of the node's own accesses, never
// on time. A node's L1/L2 hit-miss sequence is therefore a function of
// (raster artifact, cache geometry, L2 geometry) alone; the bus ratio,
// triangle buffer, setup cost and prefetch depth change only the timing.
// BuildMissStreams walks each node's work items once for all the cache
// geometries of an artifact: it generates each item's footprints, feeds
// them to one engine.Prober per geometry (Prober.AppendMisses) and drops
// them, so no footprint outlives its item. Every machine the streams are
// attached to runs only the timing pass (engine.Engine.ProcessMisses), on
// either clock of the frame walk.
//
// Equivalence contract: a machine timing from miss streams gives results
// byte-identical to streaming the frame live (cycles, counters, cache
// statistics, FIFO peaks and flight traces), by engine.ProcessMisses's
// contract; the cache and L2 statistics are the probe walk's, snapshotted
// at every frame boundary because RunSequence reports per-frame deltas.
//
// The dynamic tile queue and sort-last time frames with hooks of their own
// and never take an artifact, so they never time from streams: which
// engine times a work item depends on when the engines free up, so a
// per-engine access order — and with it a per-engine miss stream — is not
// known before timing.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/texture"
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

// MissStreams is the probe walk's output for one raster artifact and one
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

// Bytes returns the memory the stream's ops and item offsets take.
func (s *MissStreams) Bytes() int {
	n := 0
	for i := range s.nodes {
		n += 4*len(s.nodes[i].ops) + 8*len(s.nodes[i].ends)
	}
	return n
}

// BuildMissStreams runs the probe walk for artifact a: one MissStreams per
// configuration of cfgs, in order, configurations of one MissGeometry
// sharing one. Each node's work items are walked once, in order, on up to
// workers goroutines (<=0 = GOMAXPROCS): every item's footprints are
// generated once and probed by every geometry. A pure-scan geometry never
// probes, so its streams hold no ops and cost no walk. The artifact need
// not carry footprints.
//
// A node is one task, which generates each item's footprints into a buffer
// it reuses from item to item. With fewer nodes than workers, the spare
// workers split each node's geometries into groups, one task per (node,
// group), and a helper per node generates the footprints ahead of the
// groups' probes (footRing).
func BuildMissStreams(ctx context.Context, a *RasterArtifact, cfgs []Config, workers int) ([]*MissStreams, error) {
	out := make([]*MissStreams, len(cfgs))
	byGeom := make(map[MissGeometry]*MissStreams)
	var probed []*MissStreams // the geometries that probe, in first-seen order
	var probeCfgs []Config
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if a.Procs != cfg.Procs {
			return nil, fmt.Errorf("core: artifact is for %d nodes, configuration has %d", a.Procs, cfg.Procs)
		}
		g := cfg.MissGeometry()
		if byGeom[g] == nil {
			s := &MissStreams{art: a, procs: a.Procs, geom: g, nodes: make([]nodeStream, a.Procs)}
			byGeom[g] = s
			if g.PureScan {
				s.fillPureScan()
			} else {
				probed = append(probed, s)
				probeCfgs = append(probeCfgs, cfg)
			}
		}
		out[i] = byGeom[g]
	}
	if len(probed) == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	groups := min(max(workers/a.Procs, 1), len(probed))
	var rings []*footRing
	if a.Procs < workers {
		rings = make([]*footRing, a.Procs)
		for p := range rings {
			rings[p] = newFootRing(a, p, groups)
		}
	}
	err := par.ForEach(ctx, workers, a.Procs*groups, func(t int) error {
		p, grp := t/groups, t%groups
		lo, hi := grp*len(probed)/groups, (grp+1)*len(probed)/groups
		walk := nodeWalk{art: a, p: p, probers: make([]engine.Prober, hi-lo), streams: make([]*nodeStream, hi-lo)}
		for j := range walk.probers {
			cfg := probeCfgs[lo+j]
			walk.probers[j].L1 = newCache(cfg)
			if cfg.HasL2() {
				walk.probers[j].L2 = cache.New(cfg.L2Config)
			}
			walk.streams[j] = &probed[lo+j].nodes[p]
		}
		if rings == nil {
			return walk.run(ctx, walk.inline())
		}
		err := walk.run(ctx, rings[p].reader(grp))
		if err != nil {
			rings[p].stop() // the node's other groups may wait on slots this one holds
		}
		return err
	})
	for _, r := range rings {
		r.stop()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fillPureScan gives every node of a pure-scan stream its item offsets and
// frame statistics: every item holds no ops, and the caches never run.
func (s *MissStreams) fillPureScan() {
	for p := range s.nodes {
		ns := &s.nodes[p]
		ns.ends = []int{0}
		for _, f := range s.art.Frames {
			ns.first = append(ns.first, len(ns.ends)-1)
			ns.ends = append(ns.ends, make([]int, len(f.perNode[p]))...)
			ns.frames = append(ns.frames, frameStats{})
		}
	}
}

// nodeWalk is one walk over node p's work items, probing a group of cache
// geometries: probers[j] appends its misses to streams[j].
type nodeWalk struct {
	art     *RasterArtifact
	p       int
	probers []engine.Prober
	streams []*nodeStream
}

// run walks the node's items in order, taking each item's footprints from
// next, and probes them into every stream of the group. next returns nil
// only when the walk was stopped.
func (w *nodeWalk) run(ctx context.Context, next func(d *ArtifactDest) *engine.PrecomputedWork) error {
	for _, ns := range w.streams {
		ns.ends = []int{0}
	}
	for _, f := range w.art.Frames {
		for _, ns := range w.streams {
			ns.first = append(ns.first, len(ns.ends)-1)
		}
		for k, d := range f.perNode[w.p] {
			if k%ctxPollTriangles == 0 && k > 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			work := next(d)
			if work == nil {
				return fmt.Errorf("core: probe walk of node %d stopped", w.p)
			}
			for j, ns := range w.streams {
				ns.ops = w.probers[j].AppendMisses(ns.ops, work)
				ns.ends = append(ns.ends, len(ns.ops))
			}
		}
		for j, ns := range w.streams {
			st := frameStats{l1: w.probers[j].L1.Stats()}
			if w.probers[j].L2 != nil {
				st.l2 = w.probers[j].L2.Stats()
			}
			ns.frames = append(ns.frames, st)
		}
	}
	return nil
}

// inline returns a footprint source that generates each item's footprints
// when the walk asks for them, into one buffer reused from item to item.
func (w *nodeWalk) inline() func(d *ArtifactDest) *engine.PrecomputedWork {
	var work engine.PrecomputedWork
	return func(d *ArtifactDest) *engine.PrecomputedWork {
		tw := d.work(w.art.mgr)
		work.Segments = d.Work.Segments
		work.Addrs, work.Reps = tw.AppendFootprints(work.Addrs[:0], work.Reps[:0])
		return &work
	}
}

// A footRing's helper fills ringSlots reused slots of about slotRuns
// footprint runs each: enough to keep the helper ahead of the probes, few
// enough to stay in the core's caches. Walking one massive11255 node at
// scale 0.2 on 2 workers for one and for three cache geometries took 13.5
// and 22 ms this way, 21.5 and 30 ms without the helper, 19 and 25 ms with
// slots of 16 K runs, and 20 and 32 ms with 2 slots.
const ringSlots, slotRuns = 8, 512

// footRing generates node p's footprints on a helper goroutine, whole work
// items at a time, ahead of the walks that read them: every reader reads
// every slot, and the last to finish a slot hands it back to the helper.
// Each channel holds up to every slot, so no send blocks.
type footRing struct {
	free   chan *footSlot
	full   []chan *footSlot // one per reader
	done   chan struct{}    // closed by stop
	exited chan struct{}    // closed by the helper
	once   sync.Once
}

// footSlot holds the footprint runs of consecutive work items: item i's
// runs are addrs[8*ends[i]:8*ends[i+1]] and reps[ends[i]:ends[i+1]].
// readers counts the readers still reading it.
type footSlot struct {
	addrs   []texture.Addr
	reps    []int32
	ends    []int
	readers atomic.Int32
}

// newFootRing starts the helper for node p of artifact a, for the given
// number of readers.
func newFootRing(a *RasterArtifact, p, readers int) *footRing {
	r := &footRing{
		free:   make(chan *footSlot, ringSlots),
		full:   make([]chan *footSlot, readers),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for i := range r.full {
		r.full[i] = make(chan *footSlot, ringSlots)
	}
	for range ringSlots {
		r.free <- &footSlot{}
	}
	go r.fill(a, p)
	return r
}

// fill is the helper: it generates every item's footprints in walk order
// and hands each slot to every reader as it fills, until the items run out
// or the ring is stopped.
func (r *footRing) fill(a *RasterArtifact, p int) {
	defer close(r.exited)
	var s *footSlot
	send := func() {
		s.readers.Store(int32(len(r.full)))
		for _, c := range r.full {
			c <- s
		}
		s = nil
	}
	for _, f := range a.Frames {
		for _, d := range f.perNode[p] {
			if s == nil {
				select {
				case s = <-r.free:
				case <-r.done:
					return
				}
				s.addrs, s.reps, s.ends = s.addrs[:0], s.reps[:0], append(s.ends[:0], 0)
			}
			tw := d.work(a.mgr)
			s.addrs, s.reps = tw.AppendFootprints(s.addrs, s.reps)
			s.ends = append(s.ends, len(s.reps))
			if len(s.reps) >= slotRuns {
				send()
			}
		}
	}
	if s != nil {
		send()
	}
}

// stop ends the helper, whether or not its readers read every item, and
// waits for it to exit. It may be called any number of times.
func (r *footRing) stop() {
	r.once.Do(func() { close(r.done) })
	<-r.exited
}

// reader returns the footprint source of the ring's i-th reader: each call
// returns the footprints of the walk's next item, d, or nil once the ring
// is stopped.
func (r *footRing) reader(i int) func(d *ArtifactDest) *engine.PrecomputedWork {
	var cur *footSlot
	item := 0 // the next item of cur to hand out
	var work engine.PrecomputedWork
	return func(d *ArtifactDest) *engine.PrecomputedWork {
		if cur == nil || item == len(cur.ends)-1 {
			if cur != nil && cur.readers.Add(-1) == 0 {
				r.free <- cur
			}
			select {
			case cur = <-r.full[i]:
			case <-r.done:
				return nil
			}
			item = 0
		}
		lo, hi := cur.ends[item], cur.ends[item+1]
		item++
		work = engine.PrecomputedWork{Segments: d.Work.Segments, Addrs: cur.addrs[8*lo : 8*hi], Reps: cur.reps[lo:hi]}
		return &work
	}
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
// artifact attached and no streams probes each work item as it times it.
// Pass nil to detach.
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
// at arrival, and returns its completion time: the one step the walk takes
// per stored work item. With miss streams attached it runs the timing pass
// on the item's stream, with an artifact that carries footprints it
// replays the item's footprints, and any other item — a spans-only
// artifact's, or one of a frame built in memory — is timed live. Only the
// live item resolves its triangle's texture binding.
func (m *Machine) process(p, k int, d *ArtifactDest, arrival float64) float64 {
	e := m.engines[p]
	switch {
	case m.streams != nil:
		return e.ProcessMisses(arrival, d.Work.Segments, m.streams.ops(p, m.frame, k))
	case m.artifact != nil && m.artifact.HasFootprints:
		return e.ProcessPrecomputed(arrival, &d.Work)
	}
	return d.process(e, m.mgr, arrival)
}
