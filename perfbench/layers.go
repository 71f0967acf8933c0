package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/resultcache"
	"repro/internal/scene"
	"repro/internal/sweep"
	"repro/internal/texture"
	"repro/internal/trace"
)

// layerInput is what the isolation pass feeds through each layer: the
// workload's scene, one representative configuration point of its sweep,
// and the result documents it produced.
type layerInput struct {
	spec sweep.Spec // defaulted
	cfg  core.Config
	// coupledBuffer is the triangle-buffer depth of the coupled replay: the
	// spec's small buffer, or 20 when the spec has none.
	coupledBuffer int
	plan          sweep.PlanStats
	result        *sweep.Result
	docs          [][]byte
}

// newLayerInput picks the representative point of spec: its largest
// processor count, its middle tile size and the middle value of each
// machine axis.
func newLayerInput(spec sweep.Spec) (layerInput, error) {
	spec = spec.WithDefaults()
	in := layerInput{spec: spec, coupledBuffer: 20}
	kind, err := distKind(spec.Dist)
	if err != nil {
		return in, err
	}
	in.cfg = core.Config{
		Procs:        spec.Procs[len(spec.Procs)-1],
		Distribution: kind,
		TileSize:     spec.Sizes[len(spec.Sizes)/2],
		CacheKind:    core.CacheReal,
		CacheConfig:  cache.PaperConfig(),
		Bus:          memory.BusConfig{TexelsPerCycle: spec.Bus},
	}
	if len(spec.Caches) > 0 {
		kb := spec.Caches[len(spec.Caches)/2]
		in.cfg.CacheConfig = cache.Config{SizeBytes: kb * 1024, Ways: 4, LineBytes: texture.LineBytes}
	}
	if len(spec.Buses) > 0 {
		in.cfg.Bus.TexelsPerCycle = spec.Buses[len(spec.Buses)/2]
	}
	for _, b := range spec.Buffers {
		if b < core.DefaultTriangleBuffer {
			in.coupledBuffer = b
			break
		}
	}
	return in, nil
}

func distKind(name string) (distrib.Kind, error) {
	switch name {
	case "block":
		return distrib.BlockKind, nil
	case "sli":
		return distrib.SLIKind, nil
	case "blockskewed":
		return distrib.BlockSkewedKind, nil
	}
	return 0, fmt.Errorf("unknown distribution %q", name)
}

// footprintSink keeps the footprint loop's results observable, so the
// compiler cannot drop the calls being timed.
var footprintSink texture.Addr

// minPassTime is how long each isolation measurement repeats its pass, so
// that clock reads never swamp nanosecond-scale calls.
const minPassTime = 200 * time.Millisecond

// timePasses runs pass until minPassTime has elapsed (at least once) and
// returns the mean time of one pass. reset runs before every pass, untimed.
func timePasses(reset, pass func()) time.Duration {
	var total time.Duration
	n := 0
	for total < minPassTime || n == 0 {
		if reset != nil {
			reset()
		}
		t := time.Now()
		pass()
		total += time.Since(t)
		n++
	}
	return total / time.Duration(n)
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// layerPass measures every lower layer in isolation on in. Each layer's
// measurement is one span under the pass's root span.
func layerPass(ctx context.Context, in layerInput, tr *tracer) (map[string]float64, error) {
	m := make(map[string]float64)
	root := tr.begin("isolation", 0, "isolation")
	defer tr.end(root)
	layer := func(name string) func() {
		id := tr.begin("isolation", root, name)
		return func() { tr.end(id) }
	}

	// scene: Benchmark.Build.
	done := layer("scene")
	bench, err := scene.ByName(in.spec.Scene, in.spec.Scale)
	if err != nil {
		return nil, err
	}
	var sc *trace.Scene
	var synth []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if sc, err = bench.Build(); err != nil {
			return nil, err
		}
		synth = append(synth, millis(time.Since(t)))
	}
	m["scene.synth_ms"] = median(synth)
	done()
	tris := sc.Triangles

	// raster: Rasterizer.AppendSpans over every triangle.
	done = layer("raster")
	rast := raster.New(sc.Screen)
	var spans []raster.Span
	offs := make([]int, len(tris)+1)
	for i := range tris {
		spans = rast.AppendSpans(tris[i], sc.Screen, spans)
		offs[i+1] = len(spans)
	}
	var frags uint64
	for _, sp := range spans {
		frags += uint64(sp.Width())
	}
	scratch := make([]raster.Span, 0, len(spans))
	d := timePasses(nil, func() {
		scratch = scratch[:0]
		for i := range tris {
			scratch = rast.AppendSpans(tris[i], sc.Screen, scratch)
		}
	})
	m["raster.frags"] = float64(frags)
	m["raster.ns_per_frag"] = nsPer(d, frags)
	done()

	// distrib: Route plus ForEachOwnedSegment for every triangle.
	done = layer("distrib")
	procs := in.cfg.Procs
	dist, err := distrib.New(in.cfg.Distribution, sc.Screen, procs, in.cfg.TileSize)
	if err != nil {
		return nil, err
	}
	owned := make([]int, procs)
	route := make([]int, 0, procs)
	var routes, useful, segments uint64
	var routed []int // triangles with at least one destination, in order
	onSeg := func(p, x0, x1 int) {
		owned[p] += x1 - x0
		segments++
	}
	distPass := func(record bool) {
		routes, useful, segments = 0, 0, 0
		for i := range tris {
			dests := dist.Route(tris[i].BBox(), route[:0])
			for _, sp := range spans[offs[i]:offs[i+1]] {
				dist.ForEachOwnedSegment(sp.Y, sp.X0, sp.X1, onSeg)
			}
			routes += uint64(len(dests))
			for _, p := range dests {
				if owned[p] > 0 {
					useful++
				}
				owned[p] = 0
			}
			if record && len(dests) > 0 {
				routed = append(routed, i)
			}
			route = dests[:0]
		}
	}
	distPass(true)
	d = timePasses(nil, func() { distPass(false) })
	m["distrib.routes"] = float64(routes)
	m["distrib.ns_per_segment"] = nsPer(d, segments)
	m["distrib.useful_route_ratio"] = float64(useful) / float64(max(routes, 1))
	done()

	// texture: TrilinearFootprint for every fragment, with the engine's
	// per-span u/v stepping.
	done = layer("texture")
	mgr, err := sc.BuildTextures()
	if err != nil {
		return nil, err
	}
	var foot [8]texture.Addr
	var fold texture.Addr
	d = timePasses(nil, func() {
		for i := range tris {
			t := &tris[i]
			tex, lod := mgr.Texture(t.TexID), t.Tex.LOD()
			for _, sp := range spans[offs[i]:offs[i+1]] {
				yc, xc := float64(sp.Y)+0.5, float64(sp.X0)+0.5
				u := t.Tex.U0 + t.Tex.DuDx*xc + t.Tex.DuDy*yc
				v := t.Tex.V0 + t.Tex.DvDx*xc + t.Tex.DvDy*yc
				for x := sp.X0; x < sp.X1; x++ {
					tex.TrilinearFootprint(u, v, lod, &foot)
					fold ^= foot[0]
					u += t.Tex.DuDx
					v += t.Tex.DvDx
				}
			}
		}
	})
	m["texture.footprints"] = float64(frags)
	m["texture.ns_per_footprint"] = nsPer(d, frags)
	done()

	// core: building the raster artifact whose streams feed the layers below.
	done = layer("core.artifact_build")
	t := time.Now()
	art, err := core.BuildRasterArtifact(ctx, []*trace.Scene{sc}, procs, in.cfg.Distribution,
		in.cfg.TileSize, core.ArtifactOpts{Workers: 1})
	if err != nil {
		return nil, err
	}
	m["core.artifact_build_ms"] = millis(time.Since(t))
	done()
	fa := art.Frames[0]
	if len(fa.Tris) != len(routed) {
		return nil, fmt.Errorf("artifact holds %d routed triangles, Route routes %d", len(fa.Tris), len(routed))
	}

	// cache: SetAssoc.Access on each node's footprint stream, one lookup
	// per address of each run (repeats of a run are guaranteed hits, as in
	// replay); the misses feed the bus below.
	done = layer("cache")
	caches := make([]*cache.SetAssoc, procs)
	for p := range caches {
		caches[p] = cache.New(in.cfg.CacheConfig)
	}
	type missEvent struct {
		node  int32
		lines int32
		at    float64
	}
	var missEvents []missEvent
	clock := make([]float64, procs)
	var runs, semantic uint64
	cachePass := func(record bool) {
		for k := range fa.Tris {
			for j := range fa.Tris[k].Dests {
				dst := &fa.Tris[k].Dests[j]
				c, w := caches[dst.Node], &dst.Work
				for r, reps := range w.Reps {
					miss := int32(0)
					for _, a := range w.Addrs[r*8 : r*8+8] {
						if !c.Access(a) {
							miss++
						}
					}
					if record {
						clock[dst.Node] += float64(reps)
						semantic += 8 * uint64(reps)
						runs++
						if miss > 0 {
							missEvents = append(missEvents, missEvent{int32(dst.Node), miss, clock[dst.Node]})
						}
					}
				}
			}
		}
	}
	resetCaches := func() {
		for _, c := range caches {
			c.Reset()
		}
	}
	cachePass(true)
	var misses uint64
	for _, c := range caches {
		misses += c.Stats().Misses
	}
	d = timePasses(resetCaches, func() { cachePass(false) })
	m["cache.accesses"] = float64(semantic)
	m["cache.hit_ratio"] = 1 - float64(misses)/float64(max(semantic, 1))
	m["cache.ns_per_access"] = nsPer(d, 8*runs)
	done()

	// memory: Bus.Fetch for every fragment that missed.
	done = layer("memory")
	buses := make([]*memory.Bus, procs)
	for p := range buses {
		buses[p] = memory.NewBus(in.cfg.Bus)
	}
	d = timePasses(func() {
		for _, b := range buses {
			b.Reset()
		}
	}, func() {
		for _, ev := range missEvents {
			buses[ev.node].Fetch(ev.at, int(ev.lines))
		}
	})
	var lines uint64
	for _, b := range buses {
		lines += b.Stats().LinesFetched
	}
	m["memory.lines_fetched"] = float64(lines)
	m["memory.ns_per_fetch"] = nsPer(d, uint64(len(missEvents)))
	missEvents = nil
	done()

	// engine: ProcessTriangle (footprints generated per fragment) and
	// ProcessPrecomputed (the artifact's streams) per node, with the
	// parallel kernel's arrival arithmetic.
	done = layer("engine")
	engines := make([]*engine.Engine, procs)
	for p := range engines {
		engines[p] = engine.New(p, engine.DefaultSetupCycles, cache.New(in.cfg.CacheConfig), memory.NewBus(in.cfg.Bus))
	}
	arrival := make([]float64, procs)
	resetEngines := func() {
		for p, e := range engines {
			e.Reset()
			arrival[p] = 0
		}
	}
	engineFrags := func() uint64 {
		var n uint64
		for _, e := range engines {
			n += e.Stats().Fragments
		}
		return n
	}
	var work engine.TriangleWork
	d = timePasses(resetEngines, func() {
		for k := range fa.Tris {
			src := &tris[routed[k]]
			work = engine.TriangleWork{Tex: mgr.Texture(src.TexID), Map: src.Tex, LOD: src.Tex.LOD()}
			for j := range fa.Tris[k].Dests {
				dst := &fa.Tris[k].Dests[j]
				work.Segments = dst.Work.Segments
				arrival[dst.Node] = math.Ceil(engines[dst.Node].ProcessTriangle(arrival[dst.Node], &work))
			}
		}
	})
	if n := engineFrags(); n != frags {
		return nil, fmt.Errorf("engine drew %d fragments, the rasterizer %d", n, frags)
	}
	m["engine.ns_per_frag"] = nsPer(d, frags)
	d = timePasses(resetEngines, func() {
		for k := range fa.Tris {
			for j := range fa.Tris[k].Dests {
				dst := &fa.Tris[k].Dests[j]
				arrival[dst.Node] = math.Ceil(engines[dst.Node].ProcessPrecomputed(arrival[dst.Node], &dst.Work))
			}
		}
	})
	if n := engineFrags(); n != frags {
		return nil, fmt.Errorf("engine replay drew %d fragments, the rasterizer %d", n, frags)
	}
	m["engine.replay_ns_per_frag"] = nsPer(d, frags)
	done()

	// core: whole-frame kernels on the same machine configuration. Every
	// kernel must produce the same cycles (the coupled replay runs a
	// different buffer depth and is only timed).
	done = layer("core.kernels")
	var cycles float64
	runMachine := func(cfg core.Config, nodePar int, a *core.RasterArtifact, compare bool) (time.Duration, error) {
		mach, err := core.NewMachine(sc, cfg)
		if err != nil {
			return 0, err
		}
		mach.SetNodeParallelism(nodePar)
		if err := mach.SetRasterArtifact(a); err != nil {
			return 0, err
		}
		var runErr error
		d := timePasses(nil, func() {
			res, err := mach.RunContext(ctx)
			if err != nil {
				runErr = err
				return
			}
			if compare && cycles == 0 {
				cycles = res.Cycles
			} else if compare && res.Cycles != cycles {
				runErr = fmt.Errorf("kernel cycles %v differ from %v", res.Cycles, cycles)
			}
		})
		return d, runErr
	}
	par2, err := runMachine(in.cfg, 2, nil, true)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(1)
	par1, err := runMachine(in.cfg, 2, nil, true)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	events, err := runMachine(in.cfg, 1, nil, true)
	if err != nil {
		return nil, err
	}
	replay1, err := runMachine(in.cfg, 1, art, true)
	if err != nil {
		return nil, err
	}
	replay2, err := runMachine(in.cfg, 2, art, true)
	if err != nil {
		return nil, err
	}
	coupled := in.cfg
	coupled.TriangleBuffer = in.coupledBuffer
	coupledD, err := runMachine(coupled, 1, art, false)
	if err != nil {
		return nil, err
	}
	m["core.parallel_kernel_ms"] = millis(par2)
	m["core.node_par_speedup"] = float64(par1) / float64(par2)
	m["core.event_kernel_ms"] = millis(events)
	m["core.replay_ms"] = millis(replay1)
	m["core.replay_par_speedup"] = float64(replay1) / float64(replay2)
	m["core.coupled_replay_ms"] = millis(coupledD)
	done()

	// sweep: the planner's statistics and row encoding.
	done = layer("sweep")
	sims := in.plan.Points + in.plan.Baselines
	m["sweep.simulations"] = float64(sims - in.plan.Checkpointed)
	m["sweep.rasterized"] = float64(in.plan.Rasterizations)
	m["sweep.memo_saved_ratio"] = float64(in.plan.Saved) / float64(max(sims, 1))
	var encErr error
	d = timePasses(nil, func() {
		var buf bytes.Buffer
		if err := sweep.WriteCSV(&buf, in.result.Rows); err != nil {
			encErr = err
		}
		if err := sweep.WriteJSON(&buf, in.result); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return nil, encErr
	}
	m["sweep.encode_ms"] = millis(d)
	done()

	// resultcache: Put and Get of the workload's result documents.
	done = layer("resultcache")
	const entries = 512
	rc, err := resultcache.New(resultcache.Config{MaxEntries: entries})
	if err != nil {
		return nil, err
	}
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	d = timePasses(nil, func() {
		for i, k := range keys {
			_ = rc.Put(k, in.docs[i%len(in.docs)]) // memory-only: never fails
		}
	})
	m["resultcache.put_us"] = nsPer(d, entries) / 1e3
	d = timePasses(nil, func() {
		for _, k := range keys {
			rc.Get(k)
		}
	})
	m["resultcache.get_us"] = nsPer(d, entries) / 1e3
	done()

	footprintSink = fold
	return m, nil
}
