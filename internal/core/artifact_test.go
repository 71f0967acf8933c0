package core

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/trace"
)

// runArtifactPair simulates frame s under cfg on the event-driven
// reference, building the frame in memory. It then replays a prebuilt
// raster artifact of the frame on the forced FIFO-coupled driver and, with
// the given node parallelism, under the default dispatch rule, and fails
// unless every result is byte-identical after JSON encoding. It returns the
// default-dispatch replaying machine.
func runArtifactPair(t *testing.T, s *trace.Scene, cfg Config, nodePar int, opts ArtifactOpts) *Machine {
	t.Helper()
	run := func(a *RasterArtifact, force func(*Machine)) (string, *Machine) {
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if force != nil {
			force(m)
		}
		m.SetNodeParallelism(nodePar)
		if err := m.SetRasterArtifact(a); err != nil {
			t.Fatal(err)
		}
		res, err := m.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(js), m
	}
	want, _ := run(nil, forceOracle)

	cfgd := cfg.withDefaults()
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, cfgd.Procs,
		cfgd.Distribution, cfgd.TileSize, opts)
	if err != nil {
		t.Fatal(err)
	}
	coupled, _ := run(a, forceCoupled)
	got, replay := run(a, nil)
	for name, js := range map[string]string{"coupled": coupled, "default": got} {
		if js != want {
			t.Errorf("%s replay diverged\nreference: %s\nreplay: %s", name, want, js)
		}
	}
	return replay
}

// TestArtifactReplayEquivalenceMatrix pins the replay contract across
// benchmark scenes, every distribution family, every cache kind, both
// drivers and one, three or four workers (three split the 8 nodes
// unevenly): replaying an artifact must be indistinguishable from building
// each frame in memory.
func TestArtifactReplayEquivalenceMatrix(t *testing.T) {
	dists := []struct {
		kind distrib.Kind
		tile int
	}{
		{distrib.BlockKind, 16},
		{distrib.SLIKind, 2},
		{distrib.BlockSkewedKind, 8},
	}
	caches := []CacheKind{CacheReal, CachePerfect, CacheNone}
	for _, name := range []string{"massive11255", "room3"} {
		s := benchSceneFor(t, name, 0.1)
		for _, d := range dists {
			for _, ck := range caches {
				for _, nodePar := range []int{1, 3, 4} {
					cfg := Config{
						Procs: 8, Distribution: d.kind, TileSize: d.tile,
						CacheKind: ck,
						Bus:       memory.BusConfig{TexelsPerCycle: 2},
					}
					runArtifactPair(t, s, cfg, nodePar, ArtifactOpts{})
				}
			}
		}
	}
}

// TestArtifactReplayNoRepeatGuarantee covers cache geometries where the
// repeat-hit fast path must stay off — a single-set 4-way cache can alias an
// entire footprint into one set — so the replay takes the slow per-fragment
// path and must still match exactly.
func TestArtifactReplayNoRepeatGuarantee(t *testing.T) {
	s := testScene(7, 120, 128)
	cfg := Config{
		Procs: 4,
		CacheConfig: cache.Config{
			SizeBytes: 4 * 64, Ways: 4, LineBytes: 64, // 1 set: RepeatHits false
		},
		Bus: memory.BusConfig{TexelsPerCycle: 1},
	}
	runArtifactPair(t, s, cfg, 1, ArtifactOpts{})
	runArtifactPair(t, s, cfg, 4, ArtifactOpts{})
}

// TestArtifactReplayL2 checks replay with the two-level hierarchy and a
// finite main-memory bus.
func TestArtifactReplayL2(t *testing.T) {
	s := benchSceneFor(t, "blowout775", 0.15)
	cfg := Config{
		Procs: 4, L2Config: l2Config(),
		Bus:     memory.BusConfig{TexelsPerCycle: 2},
		MainBus: memory.BusConfig{TexelsPerCycle: 1},
	}
	runArtifactPair(t, s, cfg, 4, ArtifactOpts{})
}

// TestArtifactReplaySequence checks frame sequences, which stream, since an
// artifact holds one frame: on 4 workers, every frame runs on the
// decoupled driver and the inter-frame cache state evolves exactly as on
// the event-driven reference.
func TestArtifactReplaySequence(t *testing.T) {
	frames := scene.PanSequence(benchSceneFor(t, "room3", 0.1), 4, 3, 1)
	run := func(force func(*Machine)) (string, *Machine) {
		m, err := NewMachine(frames[0], Config{Procs: 8, TileSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		force(m)
		rs, err := m.RunSequence(frames)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return string(js), m
	}
	want, _ := run(forceOracle)
	got, m := run(func(m *Machine) { m.SetNodeParallelism(4) })
	if got != want {
		t.Errorf("streamed sequence diverged\nreference: %s\nstreamed:  %s", want, got)
	}
	if m.parallelFrames != len(frames) {
		t.Errorf("the stream ran %d of %d frames on the decoupled driver", m.parallelFrames, len(frames))
	}
}

// TestArtifactHoldsOneFrame: BuildRasterArtifact takes exactly one frame, and a
// machine with an artifact attached refuses a run of two frames, even when
// the artifact was made to hold both.
func TestArtifactHoldsOneFrame(t *testing.T) {
	s := testScene(3, 40, 64)
	next := testScene(4, 30, 64)
	next.Name = "core-test-2"
	build := func(frames ...*trace.Scene) (*RasterArtifact, error) {
		return BuildRasterArtifact(context.Background(), frames, 4, distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
	}
	for _, frames := range [][]*trace.Scene{nil, {s, next}} {
		if _, err := build(frames...); err == nil || !strings.Contains(err.Error(), "one frame") {
			t.Errorf("artifact of %d frames: err = %v, want a one-frame error", len(frames), err)
		}
	}
	a, err := build(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(next)
	if err != nil {
		t.Fatal(err)
	}
	a.Frames = append(a.Frames, b.Frames[0])
	m, err := NewMachine(s, Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunSequence([]*trace.Scene{s, next}); err == nil || !strings.Contains(err.Error(), "holds one") {
		t.Errorf("two-frame run with an artifact attached: err = %v, want a one-frame error", err)
	}
}

// TestArtifactReplayCoupled pins the dispatch rule on replay: with a
// triangle buffer below the paper default that no node overfills, the
// artifact replays decoupled with FIFO peaks equal to the node counts; with
// one some node overfills, it replays on the coupled driver, which must
// model the same back-pressure as the reference, FIFO peaks included.
func TestArtifactReplayCoupled(t *testing.T) {
	s := testScene(5, 60, 96)
	counts := frameCounts(t, s, 4)
	most := slices.Max(counts)
	m := runArtifactPair(t, s, Config{Procs: 4, TriangleBuffer: most}, 4, ArtifactOpts{})
	if m.parallelFrames != 1 {
		t.Errorf("buffer %d that no node overfills: decoupled driver ran %d of 1 frames", most, m.parallelFrames)
	}
	for i, n := range m.Run().Nodes {
		if n.FIFOPeak != counts[i] {
			t.Errorf("node %d: FIFO peak %d, want its count %d", i, n.FIFOPeak, counts[i])
		}
	}
	m = runArtifactPair(t, s, Config{Procs: 4, TriangleBuffer: 8}, 4, ArtifactOpts{})
	if m.parallelFrames != 0 {
		t.Error("decoupled driver engaged despite an overfilled triangle buffer")
	}
}

// TestArtifactSpansOnly: a spans-only artifact stores no footprint runs and
// replays on every machine — a pure-scan one (perfect cache, infinite bus),
// a real cache with an L2 and the cacheless model — each work item timed
// live from its source triangle.
func TestArtifactSpansOnly(t *testing.T) {
	s := testScene(11, 50, 64)
	for _, cfg := range []Config{
		{Procs: 4, CacheKind: CachePerfect},
		{Procs: 4, L2Config: l2Config(), MainBus: memory.BusConfig{TexelsPerCycle: 1}, Bus: memory.BusConfig{TexelsPerCycle: 0.5}},
		{Procs: 4, CacheKind: CacheNone, Bus: memory.BusConfig{TexelsPerCycle: 2}},
	} {
		runArtifactPair(t, s, cfg, 4, ArtifactOpts{SpansOnly: true})
	}
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 4,
		distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tri := range a.Frames[0].Tris {
		for _, d := range tri.Dests {
			if d.Work.Addrs != nil || d.Work.Reps != nil || d.src == nil {
				t.Fatalf("spans-only destination holds %d footprint runs, source %p", len(d.Work.Reps), d.src)
			}
		}
	}
}

// TestArtifactValidation pins the attach- and run-time checks that keep an
// artifact from replaying on a machine it was not built for.
func TestArtifactValidation(t *testing.T) {
	s := testScene(3, 40, 64)
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 4,
		distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	newM := func(cfg Config) *Machine {
		t.Helper()
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if err := newM(Config{Procs: 8}).SetRasterArtifact(a); err == nil {
		t.Error("artifact accepted by a machine with a different processor count")
	}
	if err := newM(Config{Procs: 4, Distribution: distrib.SLIKind, TileSize: 2}).SetRasterArtifact(a); err == nil {
		t.Error("artifact accepted by a machine with a different distribution")
	}
	if err := newM(Config{Procs: 4, TileSize: 8}).SetRasterArtifact(a); err == nil {
		t.Error("artifact accepted by a machine with a different tile size")
	}

	m := newM(Config{Procs: 4})
	if err := m.SetRasterArtifact(a); err != nil {
		t.Fatal(err)
	}
	other := testScene(4, 40, 64)
	other.Name = "core-test-other"
	if _, err := m.RunSequence([]*trace.Scene{other}); err == nil ||
		!strings.Contains(err.Error(), "artifact") {
		t.Errorf("run on a different scene: err = %v, want artifact mismatch", err)
	}
	if _, err := m.RunSequence([]*trace.Scene{s, s}); err == nil {
		t.Error("run with a different frame count accepted")
	}
	if err := m.SetRasterArtifact(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunSequence([]*trace.Scene{other}); err != nil {
		t.Errorf("detached machine refused a normal run: %v", err)
	}
}

// TestArtifactBuildDeterministic: the artifact bytes are independent of the
// build parallelism.
func TestArtifactBuildDeterministic(t *testing.T) {
	s := testScene(9, 80, 128)
	frames := []*trace.Scene{s}
	enc := func(workers int) []byte {
		a, err := BuildRasterArtifact(context.Background(), frames, 4,
			distrib.BlockKind, 16, ArtifactOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	if !bytes.Equal(enc(1), enc(8)) {
		t.Error("artifact bytes depend on build parallelism")
	}
}

// TestScreenMustFitSegments: a screen with a coordinate outside
// [0, 65535] cannot be held by engine.Segment, so the machine and the
// artifact builder reject it up front.
func TestScreenMustFitSegments(t *testing.T) {
	for _, r := range []geom.Rect{
		{X0: 0, Y0: 0, X1: 1 << 16, Y1: 64},
		{X0: 0, Y0: 0, X1: 64, Y1: 70000},
		{X0: -1, Y0: 0, X1: 64, Y1: 64},
	} {
		sc := testScene(1, 10, 64)
		sc.Screen = r
		if _, err := NewMachine(sc, Config{Procs: 4}); err == nil || !strings.Contains(err.Error(), "outside [0, 65535]") {
			t.Errorf("NewMachine on screen %v: %v, want a screen range error", r, err)
		}
		_, err := BuildRasterArtifact(context.Background(), []*trace.Scene{sc}, 4, distrib.BlockKind, 16, ArtifactOpts{})
		if err == nil || !strings.Contains(err.Error(), "outside [0, 65535]") {
			t.Errorf("BuildRasterArtifact on screen %v: %v, want a screen range error", r, err)
		}
	}
	sc := testScene(1, 10, 64)
	sc.Screen = geom.Rect{X0: 0, Y0: 0, X1: 1<<16 - 1, Y1: 64}
	if _, err := NewMachine(sc, Config{Procs: 4}); err != nil {
		t.Errorf("NewMachine on the widest screen: %v", err)
	}
}

// TestFrameBuildAllocations: buildFrameArtifact carves every destination,
// segment and footprint stream from its workers' slabs, so its allocations
// grow with the build workers (their scratch and first slab blocks) and the
// work list's size in slab blocks, never with the triangle count. Carving
// each triangle's work apart cost about two allocations per triangle in
// memory (25,739 for truc640's 12,822 at one node) and more with footprints.
func TestFrameBuildAllocations(t *testing.T) {
	sc := benchSceneFor(t, "truc640", 0.5)
	mgr, err := sc.BuildTextures()
	if err != nil {
		t.Fatal(err)
	}
	rast := raster.New(sc.Screen)
	for _, procs := range []int{1, 16} {
		d, err := distrib.New(distrib.BlockKind, sc.Screen, procs, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, footprints := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				var fa *FrameArtifact
				allocs := testing.AllocsPerRun(1, func() {
					if fa, err = buildFrameArtifact(context.Background(), sc, d, rast, mgr, workers, footprints); err != nil {
						t.Fatal(err)
					}
				})
				listBytes := (&RasterArtifact{Frames: []*FrameArtifact{fa}}).Bytes()
				// Per worker: its scratch, each node's segment buffer
				// regrown a few times, and every slab's doubling blocks;
				// then a block per slabMaxBytes of work list, twice over
				// for the blocks' unused tails.
				bound := workers*(64+8*procs) + 2*listBytes/slabMaxBytes
				t.Logf("procs %d footprints %v workers %d: %.0f allocations for %d triangles, %.1f MiB of work list (bound %d)",
					procs, footprints, workers, allocs, len(sc.Triangles), float64(listBytes)/(1<<20), bound)
				if int(allocs) > bound {
					t.Errorf("procs %d footprints %v workers %d: %.0f allocations for %d triangles, want at most %d",
						procs, footprints, workers, allocs, len(sc.Triangles), bound)
				}
			}
		}
	}
}
