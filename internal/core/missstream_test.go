package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// buildStreams walks artifact a for cfg's cache geometry alone.
func buildStreams(t *testing.T, a *RasterArtifact, cfg Config, workers int) *MissStreams {
	t.Helper()
	ms, err := BuildMissStreams(context.Background(), a, []Config{cfg}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ms[0]
}

// probePass is the per-geometry probe pass: node by node, every work item's
// recorded footprint stream through one Prober of cfg's geometry. It is the
// reference the probe walk must match.
func probePass(a *RasterArtifact, cfg Config) []nodeStream {
	cfg = cfg.withDefaults()
	nodes := make([]nodeStream, a.Procs)
	for p := range nodes {
		ns := &nodes[p]
		probe := engine.Prober{L1: newCache(cfg)}
		if cfg.HasL2() {
			probe.L2 = cache.New(cfg.L2Config)
		}
		ns.ends = []int{0}
		for _, d := range a.Frames[0].perNode[p] {
			ns.ops = probe.AppendMisses(ns.ops, &d.Work)
			ns.ends = append(ns.ends, len(ns.ops))
		}
		ns.l1 = probe.L1.Stats()
		if probe.L2 != nil {
			ns.l2 = probe.L2.Stats()
		}
	}
	return nodes
}

// TestMissStreamWalkMatchesProbePasses: one probe walk over a spans-only
// artifact, for a 4 KB cache, the paper's 16 KB cache with an L2, the
// cacheless model (whose repeats are probed) and a perfect cache on a
// finite bus, gives every geometry the ops, item ends and cache statistics
// of a per-geometry pass over the recorded footprints — on one worker,
// with fewer nodes than workers (the footprint helper running ahead of the
// probes) and with more. Two configurations of one geometry share one
// stream.
func TestMissStreamWalkMatchesProbePasses(t *testing.T) {
	frames := []*trace.Scene{benchSceneFor(t, "room3", 0.1)}
	geoms := []Config{
		{CacheConfig: cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64}},
		{L2Config: l2Config(), MainBus: memory.BusConfig{TexelsPerCycle: 1}},
		{CacheKind: CacheNone},
		{CacheKind: CachePerfect, Bus: memory.BusConfig{TexelsPerCycle: 1}},
		{CacheConfig: cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64}, Bus: memory.BusConfig{TexelsPerCycle: 2}},
	}
	for _, procs := range []int{1, 4} {
		build := func(opts ArtifactOpts) *RasterArtifact {
			a, err := BuildRasterArtifact(context.Background(), frames, procs, distrib.BlockKind, 16, opts)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		full, spans := build(ArtifactOpts{}), build(ArtifactOpts{SpansOnly: true})
		cfgs := make([]Config, len(geoms))
		want := make([][]nodeStream, len(geoms))
		for i, g := range geoms {
			cfgs[i] = g
			cfgs[i].Procs = procs
			want[i] = probePass(full, cfgs[i])
		}
		for _, workers := range []int{1, 2, 8} {
			streams, err := BuildMissStreams(context.Background(), spans, cfgs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if streams[4] != streams[0] {
				t.Errorf("procs %d workers %d: configurations of one geometry got two streams", procs, workers)
			}
			ops := 0
			for i, ms := range streams {
				for p := range ms.nodes {
					got, w := &ms.nodes[p], &want[i][p]
					ops += len(got.ops)
					if !slices.Equal(got.ops, w.ops) || !slices.Equal(got.ends, w.ends) || got.l1 != w.l1 || got.l2 != w.l2 {
						t.Errorf("procs %d workers %d geometry %d node %d: walk diverged from the probe pass\nwalk: %d ops, ends %v…, cache %+v %+v\npass: %d ops, ends %v…, cache %+v %+v",
							procs, workers, i, p, len(got.ops), got.ends[:min(4, len(got.ends))], got.l1, got.l2,
							len(w.ops), w.ends[:min(4, len(w.ends))], w.l1, w.l2)
					}
				}
			}
			if ops == 0 {
				t.Fatalf("procs %d workers %d: the walk emitted no ops", procs, workers)
			}
		}
	}
}

// TestMissStreamWalkCancelled: a walk on a cancelled context returns its
// error, with its footprint helpers stopped, whether it runs them or not.
func TestMissStreamWalkCancelled(t *testing.T) {
	s := testScene(7, 60, 96)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, procs, distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []Config{{Procs: procs}, {Procs: procs, CacheKind: CacheNone}}
		for _, workers := range []int{1, 8} {
			if _, err := BuildMissStreams(ctx, a, cfgs, workers); !errors.Is(err, context.Canceled) {
				t.Errorf("procs %d workers %d: walk on a cancelled context returned %v", procs, workers, err)
			}
		}
	}
}

// TestMissStreamSharedAcrossTimingConfigs is the probe-once-time-many
// contract: one miss stream per cache geometry, all built in one walk over
// a spans-only artifact, attached to
// machines that differ in everything else — bus ratio (non-integral line
// costs included), triangle buffer (overfull FIFOs included), setup cost,
// prefetch depth, node workers, a flight recorder — gives the results, and
// the flight trace, of building the frame in memory. A pure-scan machine
// has no stream and, as in the planner, times the artifact alone.
func TestMissStreamSharedAcrossTimingConfigs(t *testing.T) {
	frames := []*trace.Scene{benchSceneFor(t, "room3", 0.1)}
	geoms := []struct {
		name string
		cfg  Config
	}{
		{"paper", Config{}},
		{"4k+l2", Config{CacheConfig: cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64},
			L2Config: cache.Config{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}, MainBus: memory.BusConfig{TexelsPerCycle: 0.5}}},
		{"none", Config{CacheKind: CacheNone}},
		{"perfect", Config{CacheKind: CachePerfect, Bus: memory.BusConfig{TexelsPerCycle: 1}}},
		{"pure scan", Config{CacheKind: CachePerfect}},
	}
	timings := []struct {
		name string
		set  func(*Config)
	}{
		{"as built", func(*Config) {}},
		{"bus 3", func(c *Config) { c.Bus.TexelsPerCycle = 3 }},
		{"bus 0.5 buffer 2", func(c *Config) { c.Bus.TexelsPerCycle = 0.5; c.TriangleBuffer = 2 }},
		{"setup 40 prefetch 4", func(c *Config) { c.SetupCycles = 40; c.PrefetchDepth = 4 }},
	}
	a, err := BuildRasterArtifact(context.Background(), frames, 4, distrib.BlockKind, 8, ArtifactOpts{SpansOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, len(geoms))
	for i, g := range geoms {
		cfgs[i] = g.cfg
		cfgs[i].Procs, cfgs[i].Distribution, cfgs[i].TileSize = 4, distrib.BlockKind, 8
	}
	probing := cfgs[:len(cfgs)-1] // all but the pure-scan machine
	streams, err := BuildMissStreams(context.Background(), a, probing, 2)
	if err != nil {
		t.Fatal(err)
	}
	streams = append(streams, nil)
	for i, g := range geoms {
		cfg, ms := cfgs[i], streams[i]
		for _, tc := range timings {
			c := cfg
			tc.set(&c)
			if c.MissGeometry() != cfg.MissGeometry() {
				continue // the timing change left the stream's geometry (pure scan on a finite bus)
			}
			for _, record := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/flight=%v", g.name, tc.name, record), func(t *testing.T) {
					run := func(a *RasterArtifact, ms *MissStreams, nodePar int) (string, string) {
						m, err := NewMachine(frames[0], c)
						if err != nil {
							t.Fatal(err)
						}
						m.SetNodeParallelism(nodePar)
						if err := m.SetRasterArtifact(a); err != nil {
							t.Fatal(err)
						}
						if err := m.SetMissStreams(ms); err != nil {
							t.Fatal(err)
						}
						var rec *flight.Recorder
						if record {
							rec = m.EnableFlightRecorder(0)
						}
						rs, err := m.RunSequence(frames)
						if err != nil {
							t.Fatal(err)
						}
						js, err := json.Marshal(rs)
						if err != nil {
							t.Fatal(err)
						}
						if rec == nil {
							return string(js), ""
						}
						tr, err := rec.Trace()
						if err != nil {
							t.Fatal(err)
						}
						return string(js), string(tr)
					}
					want, wantTrace := run(nil, nil, 1)
					for _, nodePar := range []int{1, 2} {
						got, tr := run(a, ms, nodePar)
						if got != want {
							t.Errorf("%d workers: stream replay diverged\nin memory: %s\nstream:    %s", nodePar, want, got)
						}
						if tr != wantTrace {
							t.Errorf("%d workers: stream replay's flight trace diverged (%d vs %d bytes)", nodePar, len(tr), len(wantTrace))
						}
					}
				})
			}
		}
	}
}

// TestMissStreamRejectsMismatch: SetMissStreams accepts only streams built
// from the attached artifact for the machine's cache geometry, and
// BuildMissStreams only configurations of the artifact's node count that
// probe.
func TestMissStreamRejectsMismatch(t *testing.T) {
	s := testScene(5, 30, 64)
	frames := []*trace.Scene{s}
	build := func(procs int, opts ArtifactOpts) *RasterArtifact {
		a, err := BuildRasterArtifact(context.Background(), frames, procs, distrib.BlockKind, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cfg := Config{Procs: 2, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	a, other := build(2, ArtifactOpts{}), build(2, ArtifactOpts{})
	ms := buildStreams(t, a, cfg, 0)
	if len(ms.nodes[0].ops)+len(ms.nodes[1].ops) == 0 {
		t.Fatal("a real cache's stream holds no ops")
	}
	machine := func(cfg Config, a *RasterArtifact) *Machine {
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(a); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		m    *Machine
		want string
	}{
		{"no artifact", machine(cfg, nil), "artifact attached first"},
		{"other artifact", machine(cfg, other), "another raster artifact"},
		{"cache size", machine(Config{Procs: 2, CacheConfig: cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}}, a), "cache geometry"},
		{"cache kind", machine(Config{Procs: 2, CacheKind: CacheNone}, a), "cache geometry"},
		{"l2", machine(Config{Procs: 2, L2Config: l2Config()}, a), "cache geometry"},
		{"pure scan", machine(Config{Procs: 2, CacheKind: CachePerfect}, a), "cache geometry"},
	} {
		err := tc.m.SetMissStreams(ms)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SetMissStreams = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	// Equal geometries share: another bus and buffer take the stream.
	if err := machine(Config{Procs: 2, Bus: memory.BusConfig{TexelsPerCycle: 3}, TriangleBuffer: 2}, a).SetMissStreams(ms); err != nil {
		t.Errorf("stream refused by a machine of the same geometry: %v", err)
	}
	if _, err := BuildMissStreams(context.Background(), a, []Config{cfg, {Procs: 4}}, 0); err == nil {
		t.Error("a 2-node artifact was probed for 4 nodes")
	}
	if _, err := BuildMissStreams(context.Background(), a, []Config{cfg, {Procs: 2, CacheKind: CachePerfect}}, 0); err == nil ||
		!strings.Contains(err.Error(), "pure-scan") {
		t.Errorf("a pure-scan configuration was probed: %v", err)
	}
	// Re-attaching another artifact drops the streams.
	m := machine(cfg, a)
	if err := m.SetMissStreams(ms); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(other); err != nil {
		t.Fatal(err)
	}
	if m.streams != nil {
		t.Error("streams of the old artifact survived attaching another")
	}
}

// TestMissStreamCompact: on a benchmark scene at the paper's cache, a
// stream holds far fewer ops than fragments — most fragments hit, and a run
// of hits is one op.
func TestMissStreamCompact(t *testing.T) {
	s := benchSceneFor(t, "massive11255", 0.2)
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 16, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ms := buildStreams(t, a, Config{Procs: 16, Bus: memory.BusConfig{TexelsPerCycle: 1}}, 0)
	frags, ops := 0, 0
	for _, tri := range a.Frames[0].Tris {
		for _, d := range tri.Dests {
			frags += d.Work.Frags()
		}
	}
	for _, ns := range ms.nodes {
		ops += len(ns.ops)
	}
	if ops == 0 || ops*4 > frags {
		t.Errorf("%d ops for %d fragments, want under a quarter", ops, frags)
	}
}

// TestMissStreamConcurrentMachines: a stream is read-only once built, so
// machines on concurrent goroutines — each replaying its nodes on two
// workers — may time from it at once (run under -race).
func TestMissStreamConcurrentMachines(t *testing.T) {
	s := testScene(9, 60, 96)
	frames := []*trace.Scene{s}
	a, err := BuildRasterArtifact(context.Background(), frames, 8, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ms := buildStreams(t, a, Config{Procs: 8}, 2)
	buses := []float64{0.5, 1, 2, 3}
	got := make([]string, len(buses))
	var wg sync.WaitGroup
	for i, bus := range buses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewMachine(s, Config{Procs: 8, Bus: memory.BusConfig{TexelsPerCycle: bus}})
			if err != nil {
				t.Error(err)
				return
			}
			m.SetNodeParallelism(2)
			if err := m.SetRasterArtifact(a); err != nil {
				t.Error(err)
				return
			}
			if err := m.SetMissStreams(ms); err != nil {
				t.Error(err)
				return
			}
			res, err := m.RunContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			js, _ := json.Marshal(res)
			got[i] = string(js)
		}()
	}
	wg.Wait()
	for i, bus := range buses {
		res, err := SimulateContext(context.Background(), s, Config{Procs: 8, Bus: memory.BusConfig{TexelsPerCycle: bus}})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(res); got[i] != string(want) {
			t.Errorf("bus %v: concurrent stream replay diverged\nin memory: %s\nstream:    %s", bus, want, got[i])
		}
	}
}
