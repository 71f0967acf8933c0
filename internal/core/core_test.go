package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/distrib"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/telemetry/flight"
	"repro/internal/trace"
)

// testScene builds a deterministic random scene: nTri triangles over a
// screen, mapping regions of a few textures with roughly 1 texel/pixel.
func testScene(seed int64, nTri, size int) *trace.Scene {
	rng := rand.New(rand.NewSource(seed))
	s := &trace.Scene{
		Name:   "core-test",
		Screen: geom.Rect{X0: 0, Y0: 0, X1: size, Y1: size},
		Textures: []trace.TexSize{
			{W: 256, H: 256}, {W: 128, H: 128}, {W: 64, H: 64},
		},
	}
	fs := float64(size)
	for i := 0; i < nTri; i++ {
		cx, cy := rng.Float64()*fs, rng.Float64()*fs
		r := 4 + rng.Float64()*fs/6
		tri := geom.Triangle{
			TexID: int32(rng.Intn(len(s.Textures))),
			Tex: geom.TexMap{
				U0:   rng.Float64() * 64,
				V0:   rng.Float64() * 64,
				DuDx: 1, DvDy: 1,
			},
		}
		for j := 0; j < 3; j++ {
			tri.V[j] = geom.Vec2{
				X: cx + (rng.Float64()-0.5)*2*r,
				Y: cy + (rng.Float64()-0.5)*2*r,
			}
		}
		s.Triangles = append(s.Triangles, tri)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	scene := testScene(1, 10, 64)
	bad := []Config{
		{Procs: 0},
		{Procs: 4, TileSize: -1},
		{Procs: 4, TriangleBuffer: -5},
		{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: -2}},
	}
	for i, cfg := range bad {
		if _, err := NewMachine(scene, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewMachine(&trace.Scene{}, Config{Procs: 1}); err == nil {
		t.Error("invalid scene accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{Procs: 2}.withDefaults()
	if cfg.TileSize != 16 || cfg.TriangleBuffer != DefaultTriangleBuffer ||
		cfg.SetupCycles != 25 || cfg.CacheConfig.SizeBytes != 16*1024 {
		t.Errorf("defaults = %+v", cfg)
	}
	if got := (Config{Procs: 64, Distribution: distrib.SLIKind, TileSize: 4}).Name(); got != "sli4/p64" {
		t.Errorf("Name = %q", got)
	}
}

func TestFragmentsMatchMeasure(t *testing.T) {
	// The machine must draw exactly the fragments trace.Measure counts, for
	// any distribution and processor count: fragments are partitioned, never
	// lost or duplicated.
	scene := testScene(7, 60, 128)
	want, err := trace.Measure(scene)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []distrib.Kind{distrib.BlockKind, distrib.SLIKind} {
		for _, procs := range []int{1, 3, 16} {
			for _, tile := range []int{2, 16} {
				res, err := Simulate(scene, Config{
					Procs: procs, Distribution: kind, TileSize: tile,
					CacheKind: CachePerfect,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Fragments != want.PixelsRendered {
					t.Errorf("%s/p%d: fragments %d, want %d",
						kind, procs, res.Fragments, want.PixelsRendered)
				}
			}
		}
	}
}

func TestSingleProcPerfectCacheCycles(t *testing.T) {
	// With one processor and a perfect cache, machine time is exactly the
	// sum over triangles of max(setup, pixels).
	scene := testScene(11, 40, 128)
	r := raster.New(scene.Screen)
	var want float64
	for _, tri := range scene.Triangles {
		px := r.PixelCount(tri, scene.Screen)
		if tri.Degenerate() || tri.BBox().Intersect(scene.Screen).Empty() {
			continue // never routed
		}
		want += math.Max(25, float64(px))
	}
	res, err := Simulate(scene, Config{Procs: 1, CacheKind: CachePerfect})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != want {
		t.Errorf("cycles = %v, want %v", res.Cycles, want)
	}
	if got := res.TexelToFragment(); got != 0 {
		t.Errorf("perfect cache fetched texels: %v", got)
	}
}

// TestSingleProcCyclesIgnoreRouting pins what every speedup baseline and
// every memoized 1-processor sweep point rests on: with one processor every
// tile maps to node 0, so neither the distribution nor the tile size
// changes what the machine does, and a single consumer never waits on its
// triangle buffer. Cycles, fragments, per-node cache, bus and stall
// counters (so every field of a sweep row), and the flight recorder's
// summary and trace are the same for every routing. The sweep planner runs
// all of a spec's baselines and 1-processor points as one (1, Sizes[0])
// class, and the paper's figures divide by that baseline, on the strength of
// this.
func TestSingleProcCyclesIgnoreRouting(t *testing.T) {
	type run struct {
		res     Result
		summary []flight.NodeSummary
		trace   []byte
	}
	simulate := func(t *testing.T, s *trace.Scene, cfg Config) run {
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := m.EnableFlightRecorder(0)
		res := m.Run()
		tr, err := rec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		// The configuration differs by construction, and the buffer's peak
		// fill is capped by its depth; neither reaches a row.
		r := run{res: *res, summary: rec.Summary(), trace: tr}
		r.res.Config = Config{}
		r.res.Nodes = slices.Clone(res.Nodes)
		for n := range r.res.Nodes {
			r.res.Nodes[n].FIFOPeak = 0
		}
		return r
	}
	kinds := []distrib.Kind{distrib.BlockKind, distrib.SLIKind, distrib.BlockSkewedKind}
	tiles := []int{1, 16, 64}
	buffers := []int{1, 20, 10000}
	for _, name := range scene.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := benchSceneFor(t, name, 0.1)
			for _, ck := range []CacheKind{CachePerfect, CacheReal, CacheNone} {
				for _, bus := range []float64{0, 1} {
					var want *run
					for _, kind := range kinds {
						for _, tile := range tiles {
							for _, buf := range buffers {
								// The paper's machine (real cache, bus 1)
								// runs all 27 routings. The others run
								// every mix of tiles 1, 16 and buffers 1,
								// 10000, and tile 64 with buffer 20.
								paper := ck == CacheReal && bus == 1
								if !paper && (tile == 64) != (buf == 20) {
									continue
								}
								got := simulate(t, s, Config{Procs: 1, Distribution: kind, TileSize: tile,
									TriangleBuffer: buf, CacheKind: ck,
									Bus: memory.BusConfig{TexelsPerCycle: bus}})
								if want == nil {
									want = &got
									continue
								}
								at := fmt.Sprintf("%s/bus %v: %s%d buffer %d", ck, bus, kind, tile, buf)
								if !reflect.DeepEqual(got.res, want.res) {
									t.Errorf("%s ran %+v, want %+v", at, got.res, want.res)
								}
								if !reflect.DeepEqual(got.summary, want.summary) {
									t.Errorf("%s recorded summary %+v, want %+v", at, got.summary, want.summary)
								}
								if !bytes.Equal(got.trace, want.trace) {
									t.Errorf("%s recorded a different flight trace", at)
								}
							}
						}
					}
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	scene := testScene(3, 50, 128)
	cfg := Config{Procs: 8, Distribution: distrib.BlockKind, TileSize: 8,
		Bus: memory.BusConfig{TexelsPerCycle: 1}}
	a, err := Simulate(scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Fragments != b.Fragments {
		t.Errorf("non-deterministic: %v/%d vs %v/%d", a.Cycles, a.Fragments, b.Cycles, b.Fragments)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Errorf("node %d differs between runs", i)
		}
	}
}

func TestMachineReusableAcrossRuns(t *testing.T) {
	scene := testScene(5, 30, 64)
	m, err := NewMachine(scene, Config{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: 2}})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Run()
	b := m.Run()
	if a.Cycles != b.Cycles || a.Fragments != b.Fragments {
		t.Errorf("machine not reset between runs: %v vs %v", a.Cycles, b.Cycles)
	}
}

func TestSpeedupBounds(t *testing.T) {
	// Perfect cache, plenty of triangles: speedup must be in (1, procs] and
	// grow from 4 to 16 processors on a well-balanced workload.
	scene := testScene(17, 400, 256)
	s4, _, _, err := Speedup(scene, Config{Procs: 4, TileSize: 8, CacheKind: CachePerfect})
	if err != nil {
		t.Fatal(err)
	}
	s16, _, _, err := Speedup(scene, Config{Procs: 16, TileSize: 8, CacheKind: CachePerfect})
	if err != nil {
		t.Fatal(err)
	}
	if s4 <= 1 || s4 > 4.01 {
		t.Errorf("4-proc speedup = %v", s4)
	}
	if s16 <= s4 || s16 > 16.01 {
		t.Errorf("16-proc speedup = %v (4-proc %v)", s16, s4)
	}
}

func TestTrianglesRoutedBySize(t *testing.T) {
	// A triangle smaller than one tile must be routed to few processors; the
	// total routings must be at least the triangle count (every on-screen
	// triangle goes somewhere).
	scene := testScene(23, 100, 128)
	res, err := Simulate(scene, Config{
		Procs: 16, TileSize: 32, CacheKind: CachePerfect,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrianglesRouted < uint64(len(scene.Triangles))/2 {
		t.Errorf("only %d routings for %d triangles", res.TrianglesRouted, len(scene.Triangles))
	}
	// With tiny tiles the same scene must produce strictly more routings
	// (more overlap).
	res1, err := Simulate(scene, Config{
		Procs: 16, TileSize: 1, CacheKind: CachePerfect,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.TrianglesRouted <= res.TrianglesRouted {
		t.Errorf("1-px tiles routed %d ≤ 32-px tiles %d",
			res1.TrianglesRouted, res.TrianglesRouted)
	}
}

func TestSmallBufferSlowerThanBig(t *testing.T) {
	// The §8 effect: a 1-entry triangle FIFO must never beat a 10000-entry
	// one, and should be measurably slower on an imbalanced scene.
	scene := testScene(29, 200, 256)
	base := Config{Procs: 8, TileSize: 16, CacheKind: CachePerfect}
	small := base
	small.TriangleBuffer = 1
	big := base
	big.TriangleBuffer = DefaultTriangleBuffer
	rs, err := Simulate(scene, small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(scene, big)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles < rb.Cycles {
		t.Errorf("1-entry buffer (%v) beat 10000-entry buffer (%v)", rs.Cycles, rb.Cycles)
	}
	for _, n := range rb.Nodes {
		if n.FIFOPeak > DefaultTriangleBuffer {
			t.Errorf("FIFO peak %d exceeds capacity", n.FIFOPeak)
		}
	}
	for _, n := range rs.Nodes {
		if n.FIFOPeak > 1 {
			t.Errorf("1-entry FIFO peaked at %d", n.FIFOPeak)
		}
	}
}

func TestInfiniteBusNeverSlower(t *testing.T) {
	scene := testScene(31, 150, 256)
	base := Config{Procs: 4, TileSize: 16, CacheKind: CacheReal}
	slow := base
	slow.Bus = memory.BusConfig{TexelsPerCycle: 1}
	fast := base // infinite
	rSlow, err := Simulate(scene, slow)
	if err != nil {
		t.Fatal(err)
	}
	rFast, err := Simulate(scene, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rFast.Cycles > rSlow.Cycles {
		t.Errorf("infinite bus (%v) slower than ratio-1 bus (%v)", rFast.Cycles, rSlow.Cycles)
	}
	// Same cache behaviour: identical fetch counts, just different timing.
	if rFast.TexelToFragment() != rSlow.TexelToFragment() {
		t.Errorf("bus speed changed traffic: %v vs %v",
			rFast.TexelToFragment(), rSlow.TexelToFragment())
	}
}

func TestImbalanceMetrics(t *testing.T) {
	// A scene concentrated in one corner must show large pixel imbalance with
	// huge tiles and small imbalance with 1-line SLI.
	s := &trace.Scene{
		Name:     "corner",
		Screen:   geom.Rect{X0: 0, Y0: 0, X1: 256, Y1: 256},
		Textures: []trace.TexSize{{W: 64, H: 64}},
	}
	// A stack of triangles all in the top-left 64x64 corner.
	for i := 0; i < 20; i++ {
		s.Triangles = append(s.Triangles, geom.Triangle{
			V:   [3]geom.Vec2{{X: 0, Y: 0}, {X: 64, Y: 0}, {X: 0, Y: 64}},
			Tex: geom.TexMap{DuDx: 1, DvDy: 1},
		})
	}
	big, err := Simulate(s, Config{Procs: 4, Distribution: distrib.BlockKind,
		TileSize: 128, CacheKind: CachePerfect})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Simulate(s, Config{Procs: 4, Distribution: distrib.SLIKind,
		TileSize: 1, CacheKind: CachePerfect})
	if err != nil {
		t.Fatal(err)
	}
	// 128-px blocks: all pixels land on one of 4 procs → imbalance = 3 (300%).
	if got := big.PixelImbalance(); math.Abs(got-3) > 1e-9 {
		t.Errorf("corner-case big-tile imbalance = %v, want 3", got)
	}
	if got := small.PixelImbalance(); got > 0.05 {
		t.Errorf("1-line SLI imbalance = %v, want ≈0", got)
	}
	if big.WorkImbalance() < 1 {
		t.Errorf("big-tile work imbalance = %v, want large", big.WorkImbalance())
	}
}

func TestOffscreenTrianglesIgnored(t *testing.T) {
	s := &trace.Scene{
		Name:     "offscreen",
		Screen:   geom.Rect{X0: 0, Y0: 0, X1: 64, Y1: 64},
		Textures: []trace.TexSize{{W: 16, H: 16}},
		Triangles: []geom.Triangle{
			{V: [3]geom.Vec2{{X: 100, Y: 100}, {X: 120, Y: 100}, {X: 100, Y: 120}},
				Tex: geom.TexMap{DuDx: 1, DvDy: 1}},
			{V: [3]geom.Vec2{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 5}},
				Tex: geom.TexMap{DuDx: 1, DvDy: 1}},
		},
	}
	res, err := Simulate(s, Config{Procs: 2, CacheKind: CachePerfect})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments == 0 {
		t.Error("on-screen triangle not drawn")
	}
	if res.Cycles != 25 {
		t.Errorf("cycles = %v, want 25 (one setup-bound triangle)", res.Cycles)
	}
}

func TestTinyBufferDeadlockFree(t *testing.T) {
	// Stress the back-pressure path: 1-entry FIFOs, many processors, tiny
	// tiles so every triangle fans out widely.
	scene := testScene(37, 80, 96)
	res, err := Simulate(scene, Config{
		Procs: 16, TileSize: 1, TriangleBuffer: 1,
		Bus: memory.BusConfig{TexelsPerCycle: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
}

func TestCacheKindString(t *testing.T) {
	if CacheReal.String() != "real" || CachePerfect.String() != "perfect" ||
		CacheNone.String() != "none" {
		t.Error("CacheKind strings wrong")
	}
}
