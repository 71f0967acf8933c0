// Miss streams: probe once, time many. The paper's node hides memory
// latency behind the prefetch FIFO and models only bandwidth, so whether a
// texel access hits depends on the order of the node's own accesses, never
// on time. A node's L1/L2 hit-miss sequence is therefore a function of
// (raster artifact, cache geometry, L2 geometry) alone; the bus ratio,
// triangle buffer, setup cost and prefetch depth change only the timing.
// BuildMissStreams walks each node's work items of a one-frame artifact
// once for all the cache geometries of a list of configurations: it
// generates each item's footprints, feeds them to one engine.Prober per
// geometry (Prober.AppendMisses) and drops them, so no footprint outlives
// its item. It returns a copy of the artifact that carries the streams, one
// per geometry, and a machine that copy is attached to picks the stream of
// its own geometry (SetRasterArtifact) and runs only the timing pass
// (engine.Engine.ProcessMisses), on either clock of the frame walk. A
// machine whose geometry has no stream — a pure-scan machine, which never
// probes, or one the walk was not asked for — probes as it times. So which
// stream a machine times from is decided here alone, and a mismatch cannot
// be built.
//
// Equivalence contract: a machine timing from miss streams gives results
// byte-identical to streaming the frame live (cycles, counters, cache
// statistics, FIFO peaks and flight traces), by engine.ProcessMisses's
// contract; the cache and L2 statistics are the probe walk's, taken at the
// end of the frame.
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

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/texture"
)

// missGeometry is the part of a Config that a miss stream depends on: the
// cache models, plus whether the engine is in the pure-scan regime (perfect
// cache on an infinite bus), which never probes at all. Two configurations
// with equal geometries share their miss streams.
type missGeometry struct {
	kind     CacheKind
	cache    cache.Config // zero unless kind is CacheReal
	l2       cache.Config // zero without an L2
	pureScan bool
}

// missGeometry returns the geometry of cfg's miss streams.
func (c Config) missGeometry() missGeometry {
	c = c.withDefaults()
	g := missGeometry{kind: c.CacheKind, l2: c.L2Config}
	if c.CacheKind == CacheReal {
		g.cache = c.CacheConfig
	}
	g.pureScan = c.CacheKind == CachePerfect && c.Bus.Infinite()
	return g
}

// missStreams is the probe walk's output for one single-frame raster
// artifact and one cache geometry: per node, the miss stream of every work
// item of the frame. It is read-only once built, so any number of machines
// may time from it concurrently.
type missStreams []nodeStream

// nodeStream is one node's miss stream, its work items in submission order,
// and the node's cache and L2 statistics at the end of the frame.
type nodeStream struct {
	ops []uint32
	// ends[i+1] is the end offset of item i's ops; ends[0] is 0.
	ends   []int
	l1, l2 cache.Stats
}

// ops returns node p's ops for its k-th work item.
func (s missStreams) ops(p, k int) []uint32 {
	ns := &s[p]
	return ns.ops[ns.ends[k]:ns.ends[k+1]]
}

// BuildMissStreams runs the probe walk for artifact a and returns a copy of
// a that carries one miss stream per cache geometry of cfgs that probes,
// with how many geometries it walked. Configurations of one geometry share
// a stream, and a pure-scan configuration (perfect cache, infinite bus)
// never probes, so it adds none. Each node's work items are walked once, in
// order, on up to workers goroutines (<=0 = GOMAXPROCS): every item's
// footprints are generated once and probed by every geometry. The artifact
// need not carry footprints, and the walk never writes it: the copy shares
// its work lists, and any streams a already holds are replaced.
//
// A node is one task. With at least as many nodes as workers, the task
// generates each item's footprints itself, into a buffer it reuses from
// item to item; with fewer, a helper goroutine of the task's own generates
// them ahead of its probes (footRing).
func BuildMissStreams(ctx context.Context, a *RasterArtifact, cfgs []Config, workers int) (*RasterArtifact, int, error) {
	streams := make(map[missGeometry]missStreams)
	var probeCfgs []Config // one per geometry, in first-seen order
	for _, cfg := range cfgs {
		cfg = cfg.withDefaults()
		if err := cfg.Validate(); err != nil {
			return nil, 0, err
		}
		if a.Procs != cfg.Procs {
			return nil, 0, fmt.Errorf("core: artifact is for %d nodes, configuration has %d", a.Procs, cfg.Procs)
		}
		g := cfg.missGeometry()
		if _, ok := streams[g]; ok || g.pureScan {
			continue
		}
		streams[g] = make(missStreams, a.Procs)
		probeCfgs = append(probeCfgs, cfg)
	}
	walked := *a
	walked.streams = streams
	if len(probeCfgs) == 0 {
		return &walked, 0, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := par.ForEach(ctx, workers, a.Procs, func(p int) error {
		walk := nodeWalk{art: a, p: p, probers: make([]engine.Prober, len(probeCfgs)), streams: make([]*nodeStream, len(probeCfgs))}
		for j, cfg := range probeCfgs {
			walk.probers[j].L1 = newCache(cfg)
			if cfg.HasL2() {
				walk.probers[j].L2 = cache.New(cfg.L2Config)
			}
			walk.streams[j] = &streams[cfg.missGeometry()][p]
		}
		if a.Procs >= workers {
			return walk.run(ctx, walk.inline())
		}
		r := newFootRing(a, p)
		defer r.stop()
		return walk.run(ctx, r.next)
	})
	if err != nil {
		return nil, 0, err
	}
	return &walked, len(probeCfgs), nil
}

// nodeWalk is one walk over node p's work items, probing every cache
// geometry: probers[j] appends its misses to streams[j].
type nodeWalk struct {
	art     *RasterArtifact
	p       int
	probers []engine.Prober
	streams []*nodeStream
}

// run walks the node's items in order, taking each item's footprints from
// next, and probes them into every stream.
func (w *nodeWalk) run(ctx context.Context, next func(d *ArtifactDest) *engine.PrecomputedWork) error {
	for _, ns := range w.streams {
		ns.ends = []int{0}
	}
	for k, d := range w.art.Frames[0].perNode[w.p] {
		if k%ctxPollTriangles == 0 && k > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		work := next(d)
		for j, ns := range w.streams {
			ns.ops = w.probers[j].AppendMisses(ns.ops, work)
			ns.ends = append(ns.ends, len(ns.ops))
		}
	}
	for j, ns := range w.streams {
		ns.l1 = w.probers[j].L1.Stats()
		if w.probers[j].L2 != nil {
			ns.l2 = w.probers[j].L2.Stats()
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
// items at a time, ahead of the one walk that reads them (next), which
// hands each slot back once it has read it. Each channel holds every slot,
// so no send blocks.
type footRing struct {
	free, full chan *footSlot
	done       chan struct{} // closed by stop
	exited     chan struct{} // closed by the helper

	cur  *footSlot // the slot the walk is reading
	item int       // the next item of cur to hand out
	work engine.PrecomputedWork
}

// footSlot holds the footprint runs of consecutive work items: item i's
// runs are addrs[8*ends[i]:8*ends[i+1]] and reps[ends[i]:ends[i+1]].
type footSlot struct {
	addrs []texture.Addr
	reps  []int32
	ends  []int
}

// newFootRing starts the helper for node p of artifact a.
func newFootRing(a *RasterArtifact, p int) *footRing {
	r := &footRing{
		free:   make(chan *footSlot, ringSlots),
		full:   make(chan *footSlot, ringSlots),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for range ringSlots {
		r.free <- &footSlot{}
	}
	go r.fill(a, p)
	return r
}

// fill is the helper: it generates every item's footprints in walk order
// and hands each slot to the walk as it fills, until the items run out or
// the ring is stopped.
func (r *footRing) fill(a *RasterArtifact, p int) {
	defer close(r.exited)
	var s *footSlot
	for _, d := range a.Frames[0].perNode[p] {
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
			r.full <- s
			s = nil
		}
	}
	if s != nil {
		r.full <- s
	}
}

// stop ends the helper, whether or not the walk read every item, and waits
// for it to exit. The walk's task calls it once the walk has returned.
func (r *footRing) stop() {
	close(r.done)
	<-r.exited
}

// next returns the footprints of the walk's next item, d.
func (r *footRing) next(d *ArtifactDest) *engine.PrecomputedWork {
	if r.cur == nil || r.item == len(r.cur.ends)-1 {
		if r.cur != nil {
			r.free <- r.cur
		}
		r.cur, r.item = <-r.full, 0
	}
	lo, hi := r.cur.ends[r.item], r.cur.ends[r.item+1]
	r.item++
	r.work = engine.PrecomputedWork{Segments: d.Work.Segments, Addrs: r.cur.addrs[8*lo : 8*hi], Reps: r.cur.reps[lo:hi]}
	return &r.work
}

// process times node p's k-th work item of the current frame, d, arriving
// at arrival, and returns its completion time: the one step the walk takes
// per stored work item. With a miss stream for its geometry it runs the
// timing pass on the item's stream, with an artifact that carries footprints it
// replays the item's footprints, and any other item — a spans-only
// artifact's, or one of a frame built in memory — is timed live. Only the
// live item resolves its triangle's texture binding.
func (m *Machine) process(p, k int, d *ArtifactDest, arrival float64) float64 {
	e := m.engines[p]
	switch {
	case m.streams != nil:
		return e.ProcessMisses(arrival, d.Work.Segments, m.streams.ops(p, k))
	case m.artifact != nil && m.artifact.HasFootprints:
		return e.ProcessPrecomputed(arrival, &d.Work)
	}
	return d.process(e, m.mgr, arrival)
}
