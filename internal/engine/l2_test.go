package engine

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/texture"
)

func TestL2ZeroValueAccessors(t *testing.T) {
	e, _ := newTestEngine(cache.New(cache.PaperConfig()), memory.BusConfig{})
	if s := e.L2Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("L2 stats without L2 = %+v", s)
	}
	if s := e.MainBusStats(); s.LinesFetched != 0 {
		t.Errorf("main bus stats without L2 = %+v", s)
	}
}

func TestL2FiltersMainTraffic(t *testing.T) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(128, 128)
	l1 := cache.New(cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64})
	l2 := cache.New(cache.Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64})
	e := New(0, DefaultSetupCycles, l1, memory.NewBus(memory.BusConfig{}))
	e.AttachL2(l2, memory.NewBus(memory.BusConfig{}))

	// 16 rows × 128 px at identity density touch ~10 KB of texels: well
	// beyond the 4 KB L1, comfortably inside the 1 MB L2.
	var spans []raster.Span
	for y := 0; y < 16; y++ {
		spans = append(spans, raster.Span{Y: y, X0: 0, X1: 128})
	}
	e.ProcessTriangle(0, identityWork(tex, spans...))
	// Cold pass: every L1 miss probes L2; L2 misses all (compulsory), so
	// main lines equal L2 misses equal L1 misses.
	if e.L2Stats().Accesses != e.CacheStats().Misses {
		t.Errorf("L2 accesses %d != L1 misses %d",
			e.L2Stats().Accesses, e.CacheStats().Misses)
	}
	if e.MainBusStats().LinesFetched != e.L2Stats().Misses {
		t.Errorf("main lines %d != L2 misses %d",
			e.MainBusStats().LinesFetched, e.L2Stats().Misses)
	}
	coldMain := e.MainBusStats().LinesFetched

	// Second pass over the same texels: the tiny L1 re-misses (its 4 KB
	// cannot hold the 128x128 footprint) but the large L2 holds everything,
	// so no new main traffic.
	e.ProcessTriangle(e.Time(), identityWork(tex, spans...))
	if e.CacheStats().Misses == coldMain {
		t.Error("L1 did not re-miss on the second pass (test premise broken)")
	}
	if e.MainBusStats().LinesFetched != coldMain {
		t.Errorf("warm pass fetched %d more main lines",
			e.MainBusStats().LinesFetched-coldMain)
	}
}

func TestL2SlowMainBusDelays(t *testing.T) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(128, 128)
	mk := func(mainRatio float64) float64 {
		l1 := cache.New(cache.PaperConfig())
		l2 := cache.New(cache.Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 64})
		e := New(0, DefaultSetupCycles, l1, memory.NewBus(memory.BusConfig{TexelsPerCycle: 2}))
		e.AttachL2(l2, memory.NewBus(memory.BusConfig{TexelsPerCycle: mainRatio}))
		var spans []raster.Span
		for y := 0; y < 32; y++ {
			spans = append(spans, raster.Span{Y: y, X0: 0, X1: 128})
		}
		return e.ProcessTriangle(0, identityWork(tex, spans...))
	}
	fast := mk(0)    // infinite main bus
	slow := mk(0.25) // quarter-texel-per-cycle main bus
	if slow <= fast {
		t.Errorf("slow main bus (%v) not slower than infinite (%v)", slow, fast)
	}
}

func TestL2Reset(t *testing.T) {
	mgr := texture.NewManager()
	tex := mgr.MustAdd(64, 64)
	l1 := cache.New(cache.PaperConfig())
	l2 := cache.New(cache.Config{SizeBytes: 1 << 18, Ways: 4, LineBytes: 64})
	e := New(0, DefaultSetupCycles, l1, memory.NewBus(memory.BusConfig{}))
	e.AttachL2(l2, memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
	e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 64}))
	e.Reset()
	if e.L2Stats().Accesses != 0 || e.MainBusStats().LinesFetched != 0 {
		t.Error("L2/main bus not reset")
	}
}

func TestAdvanceTo(t *testing.T) {
	e, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 0, X0: 0, X1: 50}))
	e.AdvanceTo(200)
	if e.Time() != 200 {
		t.Errorf("AdvanceTo forward failed: %v", e.Time())
	}
	e.AdvanceTo(100) // never moves backwards
	if e.Time() != 200 {
		t.Errorf("AdvanceTo moved clock backwards: %v", e.Time())
	}
	// Next triangle starts at the barrier.
	done := e.ProcessTriangle(0, identityWork(tex, raster.Span{Y: 1, X0: 0, X1: 50}))
	if done != 250 {
		t.Errorf("post-barrier triangle finished at %v, want 250", done)
	}
}

// recordingL2 records every address the engine probes its L2 with.
type recordingL2 struct {
	cache.Model
	addrs []texture.Addr
}

func (r *recordingL2) Access(a texture.Addr) bool {
	r.addrs = append(r.addrs, a)
	return r.Model.Access(a)
}

// TestL2ProbesL1MissesInOrder: the L2 sees exactly the addresses that miss
// in the L1, in footprint order — the sequence a twin L1 probed one address
// at a time, fragment by fragment, reports as misses.
func TestL2ProbesL1MissesInOrder(t *testing.T) {
	tex := texture.NewManager().MustAdd(128, 128)
	w := &TriangleWork{
		Tex: tex, Map: geom.TexMap{U0: 3, DuDx: 0.7, DvDx: 0.1, DvDy: 0.6}, LOD: 0.4,
		Segments: []raster.Span{{Y: 0, X0: 0, X1: 90}, {Y: 1, X0: 3, X1: 80}, {Y: 2, X0: 0, X1: 60}},
	}
	pw := w.Precompute()
	for _, l1 := range []func() cache.Model{
		func() cache.Model { return cache.New(cache.Config{SizeBytes: 1024, Ways: 4, LineBytes: 64}) },
		func() cache.Model { return cache.NewNone() },
	} {
		twin := l1()
		var want []texture.Addr
		for r, reps := range pw.Reps {
			for j := int32(0); j < reps; j++ {
				for _, a := range pw.Addrs[8*r : 8*r+8] {
					if !twin.Access(a) {
						want = append(want, a)
					}
				}
			}
		}
		l2 := &recordingL2{Model: cache.New(cache.Config{SizeBytes: 8192, Ways: 8, LineBytes: 64})}
		e := New(0, DefaultSetupCycles, l1(), memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
		e.AttachL2(l2, memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
		e.ProcessTriangle(0, w)
		if !slices.Equal(l2.addrs, want) {
			t.Errorf("%T L1: L2 probed %d addresses, want the %d L1 misses in order", twin, len(l2.addrs), len(want))
		}
	}
}
