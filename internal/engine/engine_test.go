package engine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/texture"
)

func newTestEngine(c cache.Model, bus memory.BusConfig) (*Engine, *texture.Texture) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(256, 256)
	return New(0, DefaultSetupCycles, c, memory.NewBus(bus)), tex
}

func identityWork(tex *texture.Texture, spans ...raster.Span) *TriangleWork {
	return &TriangleWork{
		Tex:      tex,
		Map:      geom.TexMap{DuDx: 1, DvDy: 1},
		LOD:      0,
		Segments: spans,
	}
}

func TestSetupBoundTriangle(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	// 5 pixels < 25: triangle is setup-bound and costs exactly 25 cycles.
	done := e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 5}))
	if done != 25 {
		t.Errorf("setup-bound triangle finished at %v, want 25", done)
	}
	st := e.Stats()
	if st.SetupBound != 1 || st.Fragments != 5 || st.Triangles != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestZeroPixelTriangleStillPaysSetup(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	done := e.ProcessTriangle(10, identityWork(tex))
	if done != 35 {
		t.Errorf("empty routed triangle finished at %v, want 35", done)
	}
}

func TestScanBoundTriangle(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	// 100 pixels with a perfect cache: 100 cycles, one per pixel.
	done := e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 100}))
	if done != 100 {
		t.Errorf("scan-bound triangle finished at %v, want 100", done)
	}
	if e.Stats().SetupBound != 0 {
		t.Error("scan-bound triangle counted as setup-bound")
	}
}

func TestArrivalAfterIdle(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 30}))
	// Node idle at 30; triangle arriving at 100 starts at 100.
	done := e.ProcessTriangle(100, identityWork(tex, raster.Span{Y: 1, X0: 0, X1: 30}))
	if done != 130 {
		t.Errorf("second triangle finished at %v, want 130", done)
	}
	// Triangle arriving while busy queues behind.
	done = e.ProcessTriangle(90, identityWork(tex, raster.Span{Y: 2, X0: 0, X1: 30}))
	if done != 160 {
		t.Errorf("third triangle finished at %v, want 160", done)
	}
}

func TestPerfectCacheNeverStalls(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{TexelsPerCycle: 1})
	e.ProcessTriangle(0, identityWork(tex,
		raster.Span{Y: 0, X0: 0, X1: 200}, raster.Span{Y: 1, X0: 0, X1: 200}))
	if e.Stats().StallCycles != 0 {
		t.Errorf("perfect cache stalled %v cycles", e.Stats().StallCycles)
	}
	if e.TexelToFragment() != 0 {
		t.Errorf("perfect cache fetched texels: ratio %v", e.TexelToFragment())
	}
}

func TestCachelessRatioIsEight(t *testing.T) {
	// With no cache every fragment misses all 8 texel lookups and each miss
	// fetches a full 16-texel line, so the line-granularity traffic ratio is
	// exactly 8 × 16 texels per fragment. (The paper's "ratio 8 for a
	// cacheless machine" counts only consumed texels — a cacheless design
	// would fetch single texels, not lines.)
	e, tex := newTestEngine(cache.NewNone(), memory.BusConfig{})
	e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 100}))
	want := 8.0 * texture.LineTexels
	if got := e.TexelToFragment(); got != want {
		t.Errorf("cacheless ratio = %v, want %v", got, want)
	}
}

func TestBusStallsSlowScan(t *testing.T) {
	// Real cache, identity mapping, ratio-1 bus: a long scan across a cold
	// texture misses 2 lines per 4 pixels (two mip levels), i.e. demand
	// ≈ 16·2/4 = 8 texels/pixel > 1, so the node must stall heavily and run
	// several times slower than the scanner.
	e, tex := newTestEngine(cache.New(cache.PaperConfig()),
		memory.BusConfig{TexelsPerCycle: 1})
	var spans []raster.Span
	for y := 0; y < 16; y++ {
		spans = append(spans, raster.Span{Y: y, X0: 0, X1: 256})
	}
	done := e.ProcessTriangle(0, identityWork(tex, spans...))
	frags := float64(e.Stats().Fragments)
	if frags != 16*256 {
		t.Fatalf("fragments = %v", frags)
	}
	if done < 2*frags {
		t.Errorf("cold ratio-1 scan finished at %v, want ≫ %v (stall-bound)", done, frags)
	}
	if e.Stats().StallCycles <= 0 {
		t.Error("no stalls recorded")
	}
	// Completion is bounded below by the bus occupancy and above by fully
	// serialized scan+fetch. It lands strictly between the two because the
	// miss bursts (one heavy row per texel-block row, then light rows) exceed
	// the prefetch FIFO depth — the burst-saturation effect of paper §6.
	busy := e.BusStats().BusyCycles
	if done < busy {
		t.Errorf("completion %v below bus occupancy %v", done, busy)
	}
	if done >= frags+busy {
		t.Errorf("completion %v not better than fully serialized %v", done, frags+busy)
	}
}

func TestWarmCacheFasterThanCold(t *testing.T) {
	cfg := memory.BusConfig{TexelsPerCycle: 1}
	e, tex := newTestEngine(cache.New(cache.PaperConfig()), cfg)
	spans := []raster.Span{{Y: 0, X0: 0, X1: 64}, {Y: 1, X0: 0, X1: 64}}
	coldDone := e.ProcessTriangle(0, identityWork(tex, spans...))
	coldElapsed := coldDone
	// Re-draw the same pixels: texels are resident, no new fetches.
	warmDone := e.ProcessTriangle(coldDone, identityWork(tex, spans...))
	warmElapsed := warmDone - coldDone
	if warmElapsed >= coldElapsed {
		t.Errorf("warm pass (%v) not faster than cold pass (%v)", warmElapsed, coldElapsed)
	}
	if warmElapsed != 128 {
		t.Errorf("warm pass = %v cycles, want 128 (pure scan)", warmElapsed)
	}
}

func TestTexelToFragmentAccounting(t *testing.T) {
	e, tex := newTestEngine(cache.New(cache.PaperConfig()), memory.BusConfig{})
	e.ProcessTriangle(0, identityWork(tex,
		raster.Span{Y: 0, X0: 0, X1: 128}, raster.Span{Y: 1, X0: 0, X1: 128}))
	frags := e.Stats().Fragments
	lines := e.BusStats().LinesFetched
	want := float64(lines*texture.LineTexels) / float64(frags)
	if got := e.TexelToFragment(); got != want {
		t.Errorf("ratio = %v, want %v", got, want)
	}
	if got := e.TexelToFragment(); got <= 0 || got >= 8 {
		t.Errorf("identity-scan ratio = %v, want in (0, 8)", got)
	}
}

func TestReset(t *testing.T) {
	e, tex := newTestEngine(cache.New(cache.PaperConfig()), memory.BusConfig{TexelsPerCycle: 2})
	e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 64}))
	e.Reset()
	if e.Time() != 0 {
		t.Error("time not reset")
	}
	s := e.Stats()
	if s.Triangles != 0 || s.Fragments != 0 || s.BusyCycles != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
	if e.CacheStats().Accesses != 0 || e.BusStats().LinesFetched != 0 {
		t.Error("cache/bus not reset")
	}
}

func TestBusyCyclesAccumulate(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 10})) // setup-bound: 25
	e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 50})) // scan-bound: 50
	if got := e.Stats().BusyCycles; got != 75 {
		t.Errorf("busy cycles = %v, want 75", got)
	}
	if e.Time() != 75 {
		t.Errorf("time = %v, want 75", e.Time())
	}
}

func BenchmarkProcessTriangle(b *testing.B) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(512, 512)
	e := New(0, DefaultSetupCycles, cache.New(cache.PaperConfig()),
		memory.NewBus(memory.BusConfig{TexelsPerCycle: 2}))
	var spans []raster.Span
	for y := 0; y < 32; y++ {
		spans = append(spans, raster.Span{Y: y, X0: 0, X1: 128})
	}
	w := identityWork(tex, spans...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessTriangle(e.Time(), w)
	}
	b.ReportMetric(float64(e.Stats().Fragments)/b.Elapsed().Seconds(), "frags/s")
}

// BenchmarkProcessPrecomputed times the BenchmarkProcessTriangle triangle
// replayed from its precomputed footprint stream: the two differ only in
// where each fragment's footprint comes from.
func BenchmarkProcessPrecomputed(b *testing.B) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(512, 512)
	e := New(0, DefaultSetupCycles, cache.New(cache.PaperConfig()),
		memory.NewBus(memory.BusConfig{TexelsPerCycle: 2}))
	var spans []raster.Span
	for y := 0; y < 32; y++ {
		spans = append(spans, raster.Span{Y: y, X0: 0, X1: 128})
	}
	w := identityWork(tex, spans...).Precompute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessPrecomputed(e.Time(), &w)
	}
	b.ReportMetric(float64(e.Stats().Fragments)/b.Elapsed().Seconds(), "frags/s")
}

// TestPrecomputedMatchesProcessTriangle: replaying Precompute's stream
// times every triangle exactly as generating its footprints on the fly.
func TestPrecomputedMatchesProcessTriangle(t *testing.T) {
	models := []func() cache.Model{
		func() cache.Model { return cache.New(cache.PaperConfig()) },
		func() cache.Model { return cache.NewNone() },
	}
	for _, model := range models {
		direct, tex := newTestEngine(model(), memory.BusConfig{TexelsPerCycle: 1})
		replay := New(0, DefaultSetupCycles, model(), memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
		for i := 0; i < 4; i++ {
			w := &TriangleWork{
				Tex: tex, Map: geom.TexMap{U0: float64(3 * i), DuDx: 0.5, DvDy: 0.75}, LOD: 0.25,
				Segments: []raster.Span{{Y: i, X0: 0, X1: 40}, {Y: i + 1, X0: 5, X1: 70}},
			}
			pw := w.Precompute()
			if got, want := replay.ProcessPrecomputed(float64(10*i), &pw), direct.ProcessTriangle(float64(10*i), w); got != want {
				t.Fatalf("triangle %d: replay done %v, direct %v", i, got, want)
			}
		}
		if direct.Stats() != replay.Stats() || direct.CacheStats() != replay.CacheStats() ||
			direct.BusStats() != replay.BusStats() {
			t.Errorf("counters differ: direct %+v %+v %+v, replay %+v %+v %+v",
				direct.Stats(), direct.CacheStats(), direct.BusStats(),
				replay.Stats(), replay.CacheStats(), replay.BusStats())
		}
	}
}

func TestProcessTriangleAllocFree(t *testing.T) {
	// The per-triangle fast path must not allocate: the texel-footprint
	// scratch lives on the engine and spans are caller-owned.
	e, tex := newTestEngine(cache.New(cache.Config{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 64}), memory.BusConfig{TexelsPerCycle: 2})
	w := identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 64}, raster.Span{Y: 1, X0: 0, X1: 64})
	arrival := 0.0
	if n := testing.AllocsPerRun(100, func() {
		arrival = e.ProcessTriangle(arrival, w)
	}); n != 0 {
		t.Errorf("ProcessTriangle allocates %.1f per call", n)
	}
}
