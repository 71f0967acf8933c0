package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/texture"
)

// phaseLog records every RecordTriangle call.
type phaseLog [][4]float64

func (l *phaseLog) RecordTriangle(start, scan, stall, setup float64) {
	*l = append(*l, [4]float64{start, scan, stall, setup})
}

// TestMissStreamMatchesPrecomputed: the probe pass and the timing pass,
// run apart, give what ProcessPrecomputed gives probing every fragment one
// by one (its cache's repeat-hit guarantee hidden) and timing at once —
// completion times, engine and bus counters and per-triangle phases bit for
// bit, and the probe pass's cache counters — on a real cache, the cacheless
// model and a perfect cache, with and without an L2, on magnified
// triangles whose all-hit runs outlast a short prefetch ring, and at bus
// ratios whose line costs are not integers, so all-hit runs start from a
// fractional clock. The timing pass never touches the engine's own cache.
func TestMissStreamMatchesPrecomputed(t *testing.T) {
	models := []struct {
		name  string
		model func() cache.Model
	}{
		{"paper", func() cache.Model { return cache.New(cache.PaperConfig()) }},
		{"small", func() cache.Model { return cache.New(cache.Config{SizeBytes: 2048, Ways: 4, LineBytes: 64}) }},
		{"none", func() cache.Model { return cache.NewNone() }},
		{"perfect", func() cache.Model { return cache.NewPerfect() }},
	}
	tex := texture.NewManager().MustAdd(256, 256)
	for _, mc := range models {
		for _, l2 := range []bool{false, true} {
			for _, magnify := range []bool{false, true} {
				for _, bus := range []float64{0.5, 1, 2, 3} {
					t.Run(fmt.Sprintf("%s/l2=%v/magnify=%v/bus%v", mc.name, l2, magnify, bus), func(t *testing.T) {
						depth := DefaultPrefetchDepth
						if magnify {
							depth = 4
						}
						newEngine := func(c cache.Model) (*Engine, *phaseLog) {
							e := NewWithPrefetch(0, DefaultSetupCycles, depth, c, memory.NewBus(memory.BusConfig{TexelsPerCycle: bus}))
							if l2 {
								e.AttachL2(cache.New(cache.Config{SizeBytes: 16 * 1024, Ways: 8, LineBytes: 64}),
									memory.NewBus(memory.BusConfig{TexelsPerCycle: bus / 2}))
							}
							log := &phaseLog{}
							e.SetRecorder(log)
							return e, log
						}
						ref, refLog := newEngine(noRepeat{mc.model()})
						timed, timedLog := newEngine(mc.model())
						probe := Prober{L1: mc.model()}
						if l2 {
							probe.L2 = cache.New(cache.Config{SizeBytes: 16 * 1024, Ways: 8, LineBytes: 64})
						}
						var ops []uint32
						frags := 0
						for i := 0; i < 8; i++ {
							w := &TriangleWork{
								Tex: tex, Map: geom.TexMap{U0: float64(3 * i), DuDx: 0.5, DvDy: 0.75}, LOD: 0.25,
								Segments: []Segment{{Y: uint16(i), X0: 0, X1: 40}, {Y: uint16(i + 1), X0: 5, X1: 70}},
							}
							if magnify {
								w.Map = geom.TexMap{U0: float64(5 * i), V0: 2, DuDx: 0.05, DvDx: 0.002, DvDy: 0.05}
								w.LOD = -4
							}
							if i == 5 {
								w.Segments = nil // a zero-pixel routing still pays setup
							}
							pw := w.Precompute()
							frags += pw.Frags()
							first := len(ops)
							ops = probe.AppendMisses(ops, &pw)
							arrival := float64(7 * i)
							want := ref.ProcessPrecomputed(arrival, &pw)
							if got := timed.ProcessMisses(arrival, pw.Segments, ops[first:]); got != want {
								t.Fatalf("triangle %d: timing pass done at %v, ProcessPrecomputed at %v", i, got, want)
							}
						}
						if got, want := timed.Stats(), ref.Stats(); got != want {
							t.Errorf("engine counters %+v, want %+v", got, want)
						}
						if got, want := timed.BusStats(), ref.BusStats(); got != want {
							t.Errorf("bus counters %+v, want %+v", got, want)
						}
						if got, want := timed.MainBusStats(), ref.MainBusStats(); got != want {
							t.Errorf("main-bus counters %+v, want %+v", got, want)
						}
						if got, want := probe.L1.Stats(), ref.CacheStats(); got != want {
							t.Errorf("probe pass cache counters %+v, want %+v", got, want)
						}
						if l2 {
							if got, want := probe.L2.Stats(), ref.L2Stats(); got != want {
								t.Errorf("probe pass L2 counters %+v, want %+v", got, want)
							}
						}
						if timed.CacheStats() != (cache.Stats{}) || timed.L2Stats() != (cache.Stats{}) {
							t.Errorf("timing pass touched the engine's caches: %+v, %+v", timed.CacheStats(), timed.L2Stats())
						}
						if !slices.Equal(*timedLog, *refLog) {
							t.Errorf("flight phases differ:\ntiming pass: %v\nreference:   %v", *timedLog, *refLog)
						}
						if mc.name == "paper" && len(ops)*4 > frags {
							t.Errorf("%d ops for %d fragments, want a compact stream", len(ops), frags)
						}
						if mc.name == "paper" && magnify && !slices.ContainsFunc(ops, func(op uint32) bool { return op > hitRun|uint32(depth) }) {
							t.Errorf("no all-hit run outlasts the %d-entry prefetch ring (test premise broken)", depth)
						}
					})
				}
			}
		}
	}
}

// TestMissStreamPureScan: a pure-scan engine (perfect cache, infinite bus)
// times a triangle from its segments alone, exactly as ProcessTriangle does.
func TestMissStreamPureScan(t *testing.T) {
	tex := texture.NewManager().MustAdd(64, 64)
	live := New(0, DefaultSetupCycles, cache.NewPerfect(), memory.NewBus(memory.BusConfig{}))
	timed := New(0, DefaultSetupCycles, cache.NewPerfect(), memory.NewBus(memory.BusConfig{}))
	for i, segs := range [][]Segment{{{Y: 0, X0: 0, X1: 10}}, nil, {{Y: 1, X0: 2, X1: 90}, {Y: 2, X0: 0, X1: 3}}} {
		w := identityWork(tex, segs...)
		if got, want := timed.ProcessMisses(float64(i), segs, nil), live.ProcessTriangle(float64(i), w); got != want {
			t.Fatalf("triangle %d: timing pass done at %v, live at %v", i, got, want)
		}
	}
	if timed.Stats() != live.Stats() {
		t.Errorf("counters %+v, want %+v", timed.Stats(), live.Stats())
	}
}

// TestMissStreamHitRuns pins the probe pass's run handling: a run longer
// than one op holds splits, hits within one item become one op whether
// their lookups were skipped or made, a run never extends an op from
// before the call, and a hit after a miss never extends the miss op.
func TestMissStreamHitRuns(t *testing.T) {
	runs := func(reps ...int32) *PrecomputedWork {
		return &PrecomputedWork{Addrs: make([]texture.Addr, 8*len(reps)), Reps: reps}
	}
	perfect := Prober{L1: cache.NewPerfect()}
	if ops := perfect.AppendMisses(nil, runs(math.MaxInt32, 5)); !slices.Equal(ops, []uint32{hitRun | maxHitRun, hitRun | 5}) {
		t.Errorf("long run encoded as %#x", ops)
	}
	for _, p := range []Prober{perfect, {L1: noRepeat{cache.NewPerfect()}}} {
		if ops := p.AppendMisses(nil, runs(3, 4)); !slices.Equal(ops, []uint32{hitRun | 7}) {
			t.Errorf("%T: hits within the item encoded as %#x", p.L1, ops)
		}
	}
	ops := perfect.AppendMisses([]uint32{hitRun | 7}, runs(3))
	if !slices.Equal(ops, []uint32{hitRun | 7, hitRun | 3}) {
		t.Errorf("run reached back into the previous item: %#x", ops)
	}
	// A cold footprint over 8 lines misses both levels, and its repeat hits.
	cold := Prober{L1: cache.New(cache.PaperConfig()), L2: cache.New(cache.Config{SizeBytes: 16 * 1024, Ways: 8, LineBytes: 64})}
	w := &PrecomputedWork{Addrs: []texture.Addr{0, 64, 128, 192, 256, 320, 384, 448}, Reps: []int32{2}}
	ops = cold.AppendMisses(ops, w)
	if !slices.Equal(ops[2:], []uint32{8 | 8<<4, hitRun | 1}) {
		t.Errorf("run after a miss extended the miss op: %#x", ops)
	}
}

// TestMissStreamHitRunSteps: an all-hit run leaves the scan clock and the
// prefetch ring exactly as timing its fragments one by one does, from
// fractional clocks where a run that crosses a power of two rounds
// differently as one addition, in runs shorter and longer than the ring.
func TestMissStreamHitRunSteps(t *testing.T) {
	rounds := 0
	for _, tc := range []struct {
		s float64
		n int
	}{{1004.5230814969897, 3329}, {517.6666666666666, 4655}, {493.3333333333333, 2277}, {1023.75, 5}, {1000.1, 40}} {
		for _, depth := range []int{1, 4, 32, 64} {
			run := NewWithPrefetch(0, DefaultSetupCycles, depth, cache.NewPerfect(), memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
			ref := NewWithPrefetch(0, DefaultSetupCycles, depth, cache.NewPerfect(), memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
			got, want := run.hitFragments(tc.s, tc.n), tc.s
			for j := 0; j < tc.n; j++ {
				want = ref.hitFragments(want, 1)
			}
			if tc.s+float64(tc.n) != want {
				rounds++
			}
			// The ring as the next fragments will read it: oldest first.
			ring := func(e *Engine) []float64 { return slices.Concat(e.ring[e.ringPos:], e.ring[:e.ringPos]) }
			if got != want || !slices.Equal(ring(run), ring(ref)) || run.Stats() != ref.Stats() {
				t.Errorf("s=%v n=%d depth %d: run ends at %v with ring %v, fragment by fragment at %v with ring %v",
					tc.s, tc.n, depth, got, ring(run), want, ring(ref))
			}
		}
	}
	if rounds == 0 {
		t.Error("no case rounds differently as one addition (test premise broken)")
	}
}

// BenchmarkMissStream times the two passes apart on the BenchmarkProcessTriangle
// triangle, in ns per fragment: the probe pass (run once per cache
// geometry) and the timing pass (run once per bus and buffer setting).
func BenchmarkMissStream(b *testing.B) {
	tex := texture.NewManager().MustAdd(512, 512)
	var spans []Segment
	for y := 0; y < 32; y++ {
		spans = append(spans, Segment{Y: uint16(y), X0: 0, X1: 128})
	}
	w := identityWork(tex, spans...).Precompute()
	frags := float64(w.Frags())
	b.Run("probe", func(b *testing.B) {
		probe := Prober{L1: cache.New(cache.PaperConfig())}
		var ops []uint32
		for i := 0; i < b.N; i++ {
			ops = probe.AppendMisses(ops[:0], &w)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(frags*float64(b.N)), "ns/frag")
	})
	b.Run("timing", func(b *testing.B) {
		probe := Prober{L1: cache.New(cache.PaperConfig())}
		ops := probe.AppendMisses(nil, &w) // a cold pass: the misses dominate
		e := New(0, DefaultSetupCycles, cache.New(cache.PaperConfig()), memory.NewBus(memory.BusConfig{TexelsPerCycle: 2}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ProcessMisses(e.Time(), w.Segments, ops)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(frags*float64(b.N)), "ns/frag")
	})
}
