package core

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/trace"
)

func l2Config() cache.Config {
	// A 1 MB 8-way L2: small enough to test at reduced scale, big enough to
	// hold a reduced scene's working set.
	return cache.Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64}
}

func benchSceneFor(t testing.TB, name string, scale float64) *trace.Scene {
	t.Helper()
	b, err := scene.ByName(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

func TestL2ValidationAndDefaults(t *testing.T) {
	s := benchSceneFor(t, "blowout775", 0.2)
	bad := Config{Procs: 2, L2Config: cache.Config{SizeBytes: 100, Ways: 3, LineBytes: 64}}
	if _, err := NewMachine(s, bad); err == nil {
		t.Error("invalid L2 geometry accepted")
	}
	cfg := Config{Procs: 2, L2Config: l2Config()}
	if !cfg.HasL2() {
		t.Error("HasL2 false with L2 configured")
	}
	if (Config{Procs: 2}).HasL2() {
		t.Error("HasL2 true without L2")
	}
}

func TestL2ReducesMainTraffic(t *testing.T) {
	// Rendering the same frame twice: with an L2 big enough for the working
	// set, the second frame's main-memory traffic must collapse while L1
	// traffic stays steady (the L1 is far too small for inter-frame reuse —
	// exactly the Cox result the paper cites).
	s := benchSceneFor(t, "blowout775", 0.25)
	cfg := Config{
		Procs: 4, TileSize: 16, CacheKind: CacheReal,
		L2Config: l2Config(),
	}
	m, err := NewMachine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := m.RunSequence([]*trace.Scene{s, s})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	var main1, main2, l1a, l1b uint64
	for i := range results[0].Nodes {
		main1 += results[0].Nodes[i].MainBus.LinesFetched
		main2 += results[1].Nodes[i].MainBus.LinesFetched
		l1a += results[0].Nodes[i].Bus.LinesFetched
		l1b += results[1].Nodes[i].Bus.LinesFetched
	}
	if main1 == 0 {
		t.Fatal("no main-memory traffic in frame 1 (cold L2)")
	}
	if main2*5 > main1 {
		t.Errorf("frame 2 main traffic %d not well below frame 1's %d", main2, main1)
	}
	if l1b*2 < l1a {
		t.Errorf("L1 traffic collapsed across frames (%d → %d): 16 KB cannot hold a frame", l1a, l1b)
	}
}

func TestL2MissesBoundedByL1Misses(t *testing.T) {
	s := benchSceneFor(t, "quake", 0.2)
	res, err := Simulate(s, Config{
		Procs: 2, TileSize: 16, CacheKind: CacheReal,
		L2Config: l2Config(), MainBus: memory.BusConfig{TexelsPerCycle: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Nodes {
		if n.L2.Accesses != n.Cache.Misses {
			t.Errorf("node %d: L2 accesses %d != L1 misses %d", i, n.L2.Accesses, n.Cache.Misses)
		}
		if n.L2.Misses > n.L2.Accesses {
			t.Errorf("node %d: L2 misses exceed accesses", i)
		}
		if n.MainBus.LinesFetched != n.L2.Misses {
			t.Errorf("node %d: main lines %d != L2 misses %d", i, n.MainBus.LinesFetched, n.L2.Misses)
		}
	}
}

func TestSlowMainBusSlowsMachine(t *testing.T) {
	s := benchSceneFor(t, "teapot.full", 0.2)
	fast := Config{Procs: 2, TileSize: 16, CacheKind: CacheReal, L2Config: l2Config()}
	slow := fast
	slow.MainBus = memory.BusConfig{TexelsPerCycle: 0.25}
	rFast, err := Simulate(s, fast)
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := Simulate(s, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.Cycles <= rFast.Cycles {
		t.Errorf("quarter-speed main bus (%v) not slower than infinite (%v)",
			rSlow.Cycles, rFast.Cycles)
	}
}

func TestRunSequenceFrameAccounting(t *testing.T) {
	// Per-frame cycles must sum to the total completion time, and frame
	// fragment counts must each equal the single-frame count.
	s := benchSceneFor(t, "blowout775", 0.2)
	cfg := Config{Procs: 4, TileSize: 16, CacheKind: CacheReal}
	single, err := Simulate(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := []*trace.Scene{s, s, s}
	results, err := m.RunSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Fragments != single.Fragments {
			t.Errorf("frame %d fragments %d != %d", i, r.Fragments, single.Fragments)
		}
		if r.Cycles <= 0 {
			t.Errorf("frame %d has nonpositive cycles", i)
		}
	}
	// Frame 1 is cold; later frames are warmer (or equal): never slower by
	// more than noise.
	if results[1].Cycles > results[0].Cycles*1.01 {
		t.Errorf("warm frame 2 (%v) slower than cold frame 1 (%v)",
			results[1].Cycles, results[0].Cycles)
	}
}

// TestRunSequenceRejectsMismatchedTextures: a frame whose texture table
// differs from the machine's is refused by the run and, built into an
// artifact, by SetRasterArtifact.
func TestRunSequenceRejectsMismatchedTextures(t *testing.T) {
	s := benchSceneFor(t, "blowout775", 0.2)
	other := *s
	other.Textures = append([]trace.TexSize(nil), s.Textures...)
	other.Textures[0] = trace.TexSize{W: s.Textures[0].W * 2, H: s.Textures[0].H}
	m, err := NewMachine(s, Config{Procs: 2, CacheKind: CachePerfect})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunSequence([]*trace.Scene{s, &other}); err == nil {
		t.Error("mismatched texture table accepted")
	}
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{&other}, 2,
		distrib.BlockKind, 16, ArtifactOpts{SpansOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(a); err == nil {
		t.Error("artifact with a mismatched texture table attached")
	}
}

func TestPanSequenceInterFrameLocality(t *testing.T) {
	// The paper's §9 conjecture, testable end to end: with per-node L2s, a
	// small pan keeps frame-2 main traffic low, while a pan larger than the
	// tile size forces nodes to reload texels that last frame belonged to
	// other nodes' tiles.
	s := benchSceneFor(t, "massive11255", 0.25)
	run := func(pan float64) (frame2Main uint64) {
		m, err := NewMachine(s, Config{
			Procs: 8, TileSize: 16, CacheKind: CacheReal, L2Config: l2Config(),
		})
		if err != nil {
			t.Fatal(err)
		}
		frames := scene.PanSequence(s, 2, pan, 0)
		results, err := m.RunSequence(frames)
		if err != nil {
			t.Fatal(err)
		}
		for i := range results[1].Nodes {
			frame2Main += results[1].Nodes[i].MainBus.LinesFetched
		}
		return frame2Main
	}
	still := run(0)
	smallPan := run(4)
	bigPan := run(64)
	if !(still <= smallPan) {
		t.Errorf("static frame 2 traffic %d above small-pan %d", still, smallPan)
	}
	if bigPan <= smallPan {
		t.Errorf("64-px pan main traffic %d not above 4-px pan %d (tile-size effect missing)",
			bigPan, smallPan)
	}
}
