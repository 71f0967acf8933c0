package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// buildStreams walks artifact a for cfg's cache geometry alone and returns
// the walked artifact and its stream.
func buildStreams(t *testing.T, a *RasterArtifact, cfg Config, workers int) (*RasterArtifact, missStreams) {
	t.Helper()
	walked, _, err := BuildMissStreams(context.Background(), a, []Config{cfg}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return walked, walked.streams[cfg.missGeometry()]
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
// stream: the walk covers four geometries for five configurations.
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
		full := build(ArtifactOpts{})
		cfgs := make([]Config, len(geoms))
		want := make([][]nodeStream, len(geoms))
		for i, g := range geoms {
			cfgs[i] = g
			cfgs[i].Procs = procs
			want[i] = probePass(full, cfgs[i])
		}
		spans := build(ArtifactOpts{SpansOnly: true})
		for _, workers := range []int{1, 2, 8} {
			probed, walked, err := BuildMissStreams(context.Background(), spans, cfgs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if walked != 4 || len(probed.streams) != 4 {
				t.Errorf("procs %d workers %d: walked %d geometries into %d streams, want 4 for 4 geometries",
					procs, workers, walked, len(probed.streams))
			}
			ops := 0
			for i, cfg := range cfgs {
				ms := probed.streams[cfg.missGeometry()]
				for p := range ms {
					got, w := &ms[p], &want[i][p]
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
			if _, _, err := BuildMissStreams(ctx, a, cfgs, workers); !errors.Is(err, context.Canceled) {
				t.Errorf("procs %d workers %d: walk on a cancelled context returned %v", procs, workers, err)
			}
		}
	}
}

// TestMissStreamSharedAcrossTimingConfigs is the probe-once-time-many
// contract: one miss stream per cache geometry, all built in one walk over
// a spans-only artifact, timed by machines attached to the artifact that
// differ in everything else — bus ratio (non-integral line costs
// included), triangle buffer (overfull FIFOs included), setup cost,
// prefetch depth, node workers, a flight recorder — gives the results, and
// the flight trace, of building the frame in memory. The pure-scan
// configuration adds no stream to the walk: its machine, as in the
// planner, times the artifact alone, and on a finite bus it times from the
// perfect cache's stream.
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
	probed, walked, err := BuildMissStreams(context.Background(), a, cfgs, 2)
	if err != nil || walked != len(cfgs)-1 {
		t.Fatalf("walked %d geometries (%v), want all but the pure-scan one", walked, err)
	}
	for i, g := range geoms {
		for _, tc := range timings {
			c := cfgs[i]
			tc.set(&c)
			for _, record := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/flight=%v", g.name, tc.name, record), func(t *testing.T) {
					run := func(a *RasterArtifact, nodePar int) (string, string) {
						m, err := NewMachine(frames[0], c)
						if err != nil {
							t.Fatal(err)
						}
						m.SetNodeParallelism(nodePar)
						if err := m.SetRasterArtifact(a); err != nil {
							t.Fatal(err)
						}
						if a != nil && (m.streams == nil) != c.missGeometry().pureScan {
							t.Fatalf("attached machine has stream %v, pure scan %v", m.streams != nil, c.missGeometry().pureScan)
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
					want, wantTrace := run(nil, 1)
					for _, nodePar := range []int{1, 2} {
						got, tr := run(probed, nodePar)
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

// TestMissStreamRejectsMismatch: BuildMissStreams probes only
// configurations of the artifact's node count.
func TestMissStreamRejectsMismatch(t *testing.T) {
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{testScene(5, 30, 64)}, 2, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 2, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	if _, _, err := BuildMissStreams(context.Background(), a, []Config{cfg, {Procs: 4}}, 0); err == nil {
		t.Error("a 2-node artifact was probed for 4 nodes")
	}
	if _, ms := buildStreams(t, a, cfg, 0); len(ms[0].ops)+len(ms[1].ops) == 0 {
		t.Fatal("a real cache's stream holds no ops")
	}
}

// TestMissStreamWalkLeavesInputUntouched: the walk returns a copy of the
// artifact that carries its streams and never writes the artifact it
// walks, so a second walk of either gives a third artifact with only the
// second walk's geometries, and the artifact's bytes are its work lists'
// plus its streams'.
func TestMissStreamWalkLeavesInputUntouched(t *testing.T) {
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{testScene(5, 30, 64)}, 2, distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	paper, none := Config{Procs: 2}, Config{Procs: 2, CacheKind: CacheNone}
	first, _ := buildStreams(t, a, paper, 0)
	second, _ := buildStreams(t, first, none, 0)
	if a.streams != nil || a.streamBytes() != 0 {
		t.Errorf("the walk wrote its input: %d geometries", len(a.streams))
	}
	if len(first.streams) != 1 || first.streams[paper.missGeometry()] == nil {
		t.Errorf("the second walk changed the first walk's artifact: %d geometries", len(first.streams))
	}
	if len(second.streams) != 1 || second.streams[none.missGeometry()] == nil {
		t.Errorf("a walk of a walked artifact kept its old streams: %d geometries", len(second.streams))
	}
	for _, w := range []*RasterArtifact{first, second} {
		if n := w.streamBytes(); n <= 0 || w.Bytes() != a.Bytes()+n {
			t.Errorf("walked artifact takes %d bytes with %d of streams; its input takes %d", w.Bytes(), n, a.Bytes())
		}
	}
}

// TestMissStreamWalkSkipsPureScan: a walk over a configuration list that
// includes a pure-scan configuration succeeds and walks only the probing
// geometries; each machine attached to the artifact takes the stream of
// its own geometry, and the pure-scan machine, which has none, times the
// artifact alone and matches the event-driven reference.
func TestMissStreamWalkSkipsPureScan(t *testing.T) {
	s := testScene(11, 60, 96)
	frames := []*trace.Scene{s}
	a, err := BuildRasterArtifact(context.Background(), frames, 4, distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	paper := Config{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	pure := Config{Procs: 4, CacheKind: CachePerfect}
	none := Config{Procs: 4, CacheKind: CacheNone}
	probed, walked, err := BuildMissStreams(context.Background(), a, []Config{paper, pure, none, pure}, 2)
	if err != nil {
		t.Fatalf("walk with a pure-scan configuration: %v", err)
	}
	if walked != 2 || len(probed.streams) != 2 {
		t.Errorf("walked %d geometries into %d streams, want 2", walked, len(probed.streams))
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		stream bool
	}{
		{"real cache, bus 3", Config{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: 3}, TriangleBuffer: 2}, true},
		{"no cache", none, true},
		{"pure scan", pure, false},
		{"8 KB cache", Config{Procs: 4, CacheConfig: cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}}, false},
	} {
		run := func(a *RasterArtifact, force func(*Machine)) string {
			m, err := NewMachine(s, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if force != nil {
				force(m)
			}
			if err := m.SetRasterArtifact(a); err != nil {
				t.Fatal(err)
			}
			if a != nil && (m.streams != nil) != tc.stream {
				t.Errorf("%s: attached machine has a stream: %v, want %v", tc.name, m.streams != nil, tc.stream)
			}
			rs, err := m.RunSequence(frames)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(rs)
			if err != nil {
				t.Fatal(err)
			}
			return string(js)
		}
		if want, got := run(nil, forceOracle), run(probed, nil); got != want {
			t.Errorf("%s: attached machine diverged from the reference\nreference: %s\nattached:  %s", tc.name, want, got)
		}
	}
	// Re-attaching the artifact as it was before the walk drops the stream.
	m, err := NewMachine(s, paper)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(probed); err != nil || m.streams == nil {
		t.Fatalf("attach: %v, stream %v", err, m.streams != nil)
	}
	if err := m.SetRasterArtifact(a); err != nil || m.streams != nil {
		t.Errorf("re-attach: %v; the old artifact's stream survived: %v", err, m.streams != nil)
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
	_, ms := buildStreams(t, a, Config{Procs: 16, Bus: memory.BusConfig{TexelsPerCycle: 1}}, 0)
	frags, ops := 0, 0
	for _, tri := range a.Frames[0].Tris {
		for _, d := range tri.Dests {
			frags += d.Work.Frags()
		}
	}
	for _, ns := range ms {
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
	a, _ = buildStreams(t, a, Config{Procs: 8}, 2)
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
