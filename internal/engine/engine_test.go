package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/texture"
)

func newTestEngine(c cache.Model, bus memory.BusConfig) (*Engine, *texture.Texture) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(256, 256)
	return New(0, DefaultSetupCycles, c, memory.NewBus(bus)), tex
}

func identityWork(tex *texture.Texture, spans ...Segment) *TriangleWork {
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
	done := e.ProcessTriangle(0, identityWork(tex, Segment{Y: 0, X0: 0, X1: 5}))
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
	done := e.ProcessTriangle(0, identityWork(tex, Segment{Y: 0, X0: 0, X1: 100}))
	if done != 100 {
		t.Errorf("scan-bound triangle finished at %v, want 100", done)
	}
	if e.Stats().SetupBound != 0 {
		t.Error("scan-bound triangle counted as setup-bound")
	}
}

func TestArrivalAfterIdle(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	e.ProcessTriangle(0, identityWork(tex, Segment{Y: 0, X0: 0, X1: 30}))
	// Node idle at 30; triangle arriving at 100 starts at 100.
	done := e.ProcessTriangle(100, identityWork(tex, Segment{Y: 1, X0: 0, X1: 30}))
	if done != 130 {
		t.Errorf("second triangle finished at %v, want 130", done)
	}
	// Triangle arriving while busy queues behind.
	done = e.ProcessTriangle(90, identityWork(tex, Segment{Y: 2, X0: 0, X1: 30}))
	if done != 160 {
		t.Errorf("third triangle finished at %v, want 160", done)
	}
}

func TestPerfectCacheNeverStalls(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{TexelsPerCycle: 1})
	e.ProcessTriangle(0, identityWork(tex,
		Segment{Y: 0, X0: 0, X1: 200}, Segment{Y: 1, X0: 0, X1: 200}))
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
	e.ProcessTriangle(0, identityWork(tex, Segment{Y: 0, X0: 0, X1: 100}))
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
	var spans []Segment
	for y := 0; y < 16; y++ {
		spans = append(spans, Segment{Y: uint16(y), X0: 0, X1: 256})
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
	spans := []Segment{{Y: 0, X0: 0, X1: 64}, {Y: 1, X0: 0, X1: 64}}
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
		Segment{Y: 0, X0: 0, X1: 128}, Segment{Y: 1, X0: 0, X1: 128}))
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
	e.ProcessTriangle(0, identityWork(tex, Segment{Y: 0, X0: 0, X1: 64}))
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
	e.ProcessTriangle(0, identityWork(tex, Segment{Y: 0, X0: 0, X1: 10})) // setup-bound: 25
	e.ProcessTriangle(0, identityWork(tex, Segment{Y: 0, X0: 0, X1: 50})) // scan-bound: 50
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
	var spans []Segment
	for y := 0; y < 32; y++ {
		spans = append(spans, Segment{Y: uint16(y), X0: 0, X1: 128})
	}
	w := identityWork(tex, spans...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessTriangle(e.Time(), w)
	}
	b.ReportMetric(float64(e.Stats().Fragments)/b.Elapsed().Seconds(), "frags/s")
}

// BenchmarkProcessTriangleMagnified times a magnified triangle (one texel
// spans 8 pixels, lod < 0): consecutive fragments repeat a footprint in runs
// of about 8, which the live path skips.
func BenchmarkProcessTriangleMagnified(b *testing.B) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(512, 512)
	e := New(0, DefaultSetupCycles, cache.New(cache.PaperConfig()),
		memory.NewBus(memory.BusConfig{TexelsPerCycle: 2}))
	var spans []Segment
	for y := 0; y < 32; y++ {
		spans = append(spans, Segment{Y: uint16(y), X0: 0, X1: 128})
	}
	w := &TriangleWork{Tex: tex, Map: geom.TexMap{DuDx: 0.125, DvDy: 0.125}, LOD: -3, Segments: spans}
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
	var spans []Segment
	for y := 0; y < 32; y++ {
		spans = append(spans, Segment{Y: uint16(y), X0: 0, X1: 128})
	}
	w := identityWork(tex, spans...).Precompute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessPrecomputed(e.Time(), &w)
	}
	b.ReportMetric(float64(e.Stats().Fragments)/b.Elapsed().Seconds(), "frags/s")
}

// noRepeat hides a cache model's repeat-hit guarantee, so an engine driving
// it looks up every fragment's footprint: the reference the repeat-skipping
// paths must match.
type noRepeat struct{ cache.Model }

func (noRepeat) RepeatHits() bool { return false }

// TestPrecomputedMatchesProcessTriangle: replaying Precompute's stream
// times every triangle exactly as generating its footprints on the fly, and
// both match an engine that skips no repeated footprint — on a real cache,
// on the cacheless model (no repeat skipping), with an L2 behind each, and
// on a magnified triangle whose fragments repeat footprints in long runs.
func TestPrecomputedMatchesProcessTriangle(t *testing.T) {
	cases := []struct {
		name    string
		model   func() cache.Model
		l2      bool
		magnify bool
	}{
		{"paper", func() cache.Model { return cache.New(cache.PaperConfig()) }, false, false},
		{"none", func() cache.Model { return cache.NewNone() }, false, false},
		{"paper+l2", func() cache.Model { return cache.New(cache.Config{SizeBytes: 2048, Ways: 4, LineBytes: 64}) }, true, false},
		{"none+l2", func() cache.Model { return cache.NewNone() }, true, false},
		{"paper magnified", func() cache.Model { return cache.New(cache.PaperConfig()) }, false, true},
		{"paper+l2 magnified", func() cache.Model { return cache.New(cache.Config{SizeBytes: 2048, Ways: 4, LineBytes: 64}) }, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tex := texture.NewManager().MustAdd(256, 256)
			newEngine := func(c cache.Model) *Engine {
				e := New(0, DefaultSetupCycles, c, memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
				if tc.l2 {
					e.AttachL2(cache.New(cache.Config{SizeBytes: 16 * 1024, Ways: 8, LineBytes: 64}),
						memory.NewBus(memory.BusConfig{TexelsPerCycle: 0.5}))
				}
				return e
			}
			direct, replay, ref := newEngine(tc.model()), newEngine(tc.model()), newEngine(noRepeat{tc.model()})
			frags, runs := 0, 0
			for i := 0; i < 6; i++ {
				w := &TriangleWork{
					Tex: tex, Map: geom.TexMap{U0: float64(3 * i), DuDx: 0.5, DvDy: 0.75}, LOD: 0.25,
					Segments: []Segment{{Y: uint16(i), X0: 0, X1: 40}, {Y: uint16(i + 1), X0: 5, X1: 70}},
				}
				if tc.magnify {
					w.Map = geom.TexMap{U0: float64(5 * i), V0: 2, DuDx: 0.1, DvDx: 0.02, DvDy: 0.1}
					w.LOD = -2
				}
				pw := w.Precompute()
				frags += pw.Frags()
				runs += len(pw.Reps)
				arrival := float64(10 * i)
				want := ref.ProcessTriangle(arrival, w)
				if got := direct.ProcessTriangle(arrival, w); got != want {
					t.Fatalf("triangle %d: direct done %v, reference %v", i, got, want)
				}
				if got := replay.ProcessPrecomputed(arrival, &pw); got != want {
					t.Fatalf("triangle %d: replay done %v, reference %v", i, got, want)
				}
			}
			if tc.magnify && runs*4 > frags {
				t.Fatalf("magnified triangles: %d runs over %d fragments, want long repeat runs", runs, frags)
			}
			type counters struct {
				Time      float64
				Stats     Stats
				Cache, L2 cache.Stats
				Bus, Main memory.BusStats
			}
			snap := func(e *Engine) counters {
				return counters{e.Time(), e.Stats(), e.CacheStats(), e.L2Stats(), e.BusStats(), e.MainBusStats()}
			}
			want := snap(ref)
			if got := snap(direct); got != want {
				t.Errorf("direct counters %+v, reference %+v", got, want)
			}
			if got := snap(replay); got != want {
				t.Errorf("replay counters %+v, reference %+v", got, want)
			}
			if tc.l2 && want.L2.Accesses == 0 {
				t.Error("L2 never probed (test premise broken)")
			}
		})
	}
}

// countingCache counts AccessFootprint calls: the fragments a cache model
// actually looked up.
type countingCache struct {
	cache.Model
	lookups int
}

func (c *countingCache) AccessFootprint(foot *[8]texture.Addr) uint8 {
	c.lookups++
	return c.Model.AccessFootprint(foot)
}

// TestProcessTriangleSkipsRepeatedFootprints: the live path looks up one
// footprint per run Precompute would record, when the cache guarantees
// repeat hits, and every fragment's otherwise.
func TestProcessTriangleSkipsRepeatedFootprints(t *testing.T) {
	tex := texture.NewManager().MustAdd(256, 256)
	w := &TriangleWork{
		Tex: tex, Map: geom.TexMap{U0: 1, DuDx: 0.1, DvDy: 0.1}, LOD: -1,
		Segments: []Segment{{Y: 0, X0: 0, X1: 100}, {Y: 1, X0: 0, X1: 100}},
	}
	pw := w.Precompute()
	if len(pw.Reps)*2 > pw.Frags() {
		t.Fatalf("%d runs over %d fragments, want long repeat runs", len(pw.Reps), pw.Frags())
	}
	for _, c := range []*countingCache{{Model: cache.New(cache.PaperConfig())}, {Model: cache.NewNone()}} {
		e := New(0, DefaultSetupCycles, c, memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
		e.ProcessTriangle(0, w)
		want := len(pw.Reps)
		if !c.RepeatHits() {
			want = pw.Frags()
		}
		if c.lookups != want {
			t.Errorf("%T: %d footprint lookups, want %d (%d runs over %d fragments)",
				c.Model, c.lookups, want, len(pw.Reps), pw.Frags())
		}
	}
}

func TestProcessTriangleAllocFree(t *testing.T) {
	// The per-triangle paths must not allocate once warm: the footprint and
	// op scratch live on the engine and spans are caller-owned.
	e, tex := newTestEngine(cache.New(cache.Config{SizeBytes: 16 * 1024, Ways: 4, LineBytes: 64}), memory.BusConfig{TexelsPerCycle: 2})
	w := identityWork(tex, Segment{Y: 0, X0: 0, X1: 64}, Segment{Y: 1, X0: 0, X1: 64})
	pw := w.Precompute()
	arrival := 0.0
	if n := testing.AllocsPerRun(100, func() {
		arrival = e.ProcessTriangle(arrival, w)
	}); n != 0 {
		t.Errorf("ProcessTriangle allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		arrival = e.ProcessPrecomputed(arrival, &pw)
	}); n != 0 {
		t.Errorf("ProcessPrecomputed allocates %.1f per call", n)
	}
}

// TestNodeStateIsPadded: node pipelines replay on concurrent workers, and a
// machine allocates node p's engine right before node p+1's. The engine's
// clock and counters are written on every fragment, so it must end in a
// blank pad of at least one 64-byte line, or the workers contend for the
// line.
func TestNodeStateIsPadded(t *testing.T) {
	typ := reflect.TypeOf(Engine{})
	last := typ.Field(typ.NumField() - 1)
	if last.Name != "_" || last.Type.Kind() != reflect.Array || last.Type.Size() < 64 {
		t.Errorf("%s ends in field %s %s, want a blank array of at least 64 bytes", typ, last.Name, last.Type)
	}
}

// TestRingsShareNoLine: the prefetch ring is written on every fragment too,
// and at depth 1 it is a single 8-byte slot, which unrounded would pack
// several nodes' rings into one line. The op scratch is written on every
// fragment as well, so it and each regrowth of it get lines of their own.
func TestRingsShareNoLine(t *testing.T) {
	tex := texture.NewManager().MustAdd(64, 64)
	owner := map[uintptr]string{}
	// Every ring and outgrown scratch stays live, so no later one reuses its lines.
	engines := make([]*Engine, 64)
	var keep [][]uint32
	claim := func(name string, first uintptr, bytes int) {
		for line := first / 64; line <= (first+uintptr(bytes)-1)/64; line++ {
			if other, ok := owner[line]; ok {
				t.Fatalf("%s and %s share the line at %#x", other, name, line*64)
			}
			owner[line] = name
		}
	}
	for i := range engines {
		e := NewWithPrefetch(i, DefaultSetupCycles, 1, cache.New(cache.PaperConfig()), memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
		engines[i] = e
		claim(fmt.Sprintf("engine %d's prefetch ring", i), reflect.ValueOf(e.ring).Pointer(), len(e.ring)*8)
		// One fragment, then enough to regrow the scratch, live and replayed.
		for _, x1 := range []uint16{1, 100, 300} {
			w := identityWork(tex, Segment{Y: 0, X0: 0, X1: x1})
			if x1 < 300 {
				e.ProcessTriangle(0, w)
			} else {
				pw := w.Precompute()
				e.ProcessPrecomputed(0, &pw)
			}
			claim(fmt.Sprintf("engine %d's %d-op scratch", i, cap(e.ops)), reflect.ValueOf(e.ops[:1]).Pointer(), cap(e.ops)*4)
			keep = append(keep, e.ops)
		}
	}
	runtime.KeepAlive(engines)
	runtime.KeepAlive(keep)
}

// TestSegmentIsCompact: a frame's work list holds one Segment per tile cut
// of every rasterized row (917,861 for truc640 at one node), so its size is
// the work list's size.
func TestSegmentIsCompact(t *testing.T) {
	if got := reflect.TypeOf(Segment{}).Size(); got != 6 {
		t.Errorf("Segment is %d bytes, want 6", got)
	}
}
