package repro

// One benchmark per paper table/figure: each regenerates the corresponding
// experiment end to end (scene synthesis, machine sweep, report assembly) at
// a reduced scale, and reports simulated fragments per second where that is
// the dominant cost. Run a single iteration of everything with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// For the paper-scale numbers use cmd/texbench with -scale 1.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/trace"
)

// benchOpt keeps the per-iteration cost of whole-experiment benchmarks
// manageable; the shapes remain those of the paper.
var benchOpt = experiments.Options{Scale: 0.25}

func benchExperiment(b *testing.B, run func(context.Context, experiments.Options) (*experiments.Report, error)) {
	b.Helper()
	opt := benchOpt
	opt.OutDir = b.TempDir()
	for i := 0; i < b.N; i++ {
		rep, err := run(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Table) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1 regenerates Table 1: scene synthesis plus full-frame
// measurement of all seven benchmarks.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, experiments.RunTable1) }

// BenchmarkFig5Imbalance regenerates Figure 5 (top): the 64-processor load
// imbalance sweep over both distributions and all sizes.
func BenchmarkFig5Imbalance(b *testing.B) { benchExperiment(b, experiments.RunFig5Imbalance) }

// BenchmarkFig5Speedup regenerates Figure 5 (bottom): perfect-cache speedup
// of 32massive11255 versus processor count.
func BenchmarkFig5Speedup(b *testing.B) { benchExperiment(b, experiments.RunFig5Speedup) }

// BenchmarkFig6Locality regenerates Figure 6: texel-to-fragment ratio versus
// processors on 16 KB caches with an infinite bus.
func BenchmarkFig6Locality(b *testing.B) { benchExperiment(b, experiments.RunFig6Locality) }

// BenchmarkFig7 regenerates Figure 7: speedups of all benchmarks on 4/16/64
// processors with a 1 texel/pixel bus.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, experiments.RunFig7) }

// BenchmarkFig7Bus2 regenerates the §7 companion with a 2 texel/pixel bus.
func BenchmarkFig7Bus2(b *testing.B) { benchExperiment(b, experiments.RunFig7Bus2) }

// BenchmarkFig8Buffer regenerates Figure 8: the triangle-buffer sweep on
// truc640 with 64 processors.
func BenchmarkFig8Buffer(b *testing.B) { benchExperiment(b, experiments.RunFig8) }

// BenchmarkFig9Images regenerates Figure 9: depth-complexity renderings of
// teapot.full, room3 and quake.
func BenchmarkFig9Images(b *testing.B) { benchExperiment(b, experiments.RunFig9) }

// BenchmarkExtL2 regenerates the §9 inter-frame L2 locality extension.
func BenchmarkExtL2(b *testing.B) { benchExperiment(b, experiments.RunExtL2) }

// BenchmarkExtDynamic regenerates the §9 dynamic-balancing extension.
func BenchmarkExtDynamic(b *testing.B) { benchExperiment(b, experiments.RunExtDynamic) }

// BenchmarkExtPrefetch regenerates the prefetch-depth ablation.
func BenchmarkExtPrefetch(b *testing.B) { benchExperiment(b, experiments.RunExtPrefetch) }

// BenchmarkExtCache regenerates the cache-geometry ablation.
func BenchmarkExtCache(b *testing.B) { benchExperiment(b, experiments.RunExtCache) }

// BenchmarkExtSortLast regenerates the sort-middle vs sort-last comparison.
func BenchmarkExtSortLast(b *testing.B) { benchExperiment(b, experiments.RunExtSortLast) }

// BenchmarkExtOverlap regenerates the Chen overlap-model validation.
func BenchmarkExtOverlap(b *testing.B) { benchExperiment(b, experiments.RunExtOverlap) }

// BenchmarkExtInterleave regenerates the interleave-pattern ablation.
func BenchmarkExtInterleave(b *testing.B) { benchExperiment(b, experiments.RunExtInterleave) }

// benchMachineThroughput measures the simulator's core speed — simulated
// fragments per wall-clock second on one representative configuration
// (16 processors, block-16, 16 KB caches, ratio-1 bus, truc640) — with the
// machine's worker bound fixed at nodePar (1 = one worker, 0 = GOMAXPROCS
// workers). Results are byte-identical at every bound, so the pair measures
// pure wall-clock speedup.
func benchMachineThroughput(b *testing.B, nodePar int) {
	bm, err := scene.ByName("truc640", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	s := bm.MustBuild()
	m, err := core.NewMachine(s, core.Config{
		Procs: 16, Distribution: distrib.BlockKind, TileSize: 16,
		CacheKind: core.CacheReal, Bus: memory.BusConfig{TexelsPerCycle: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	m.SetNodeParallelism(nodePar)
	b.ResetTimer()
	var frags uint64
	for i := 0; i < b.N; i++ {
		res := m.Run()
		frags += res.Fragments
	}
	b.ReportMetric(float64(frags)/b.Elapsed().Seconds(), "frags/s")
}

// BenchmarkMachineThroughput is the shipping default: the frame streamed
// with a GOMAXPROCS worker bound.
func BenchmarkMachineThroughput(b *testing.B) { benchMachineThroughput(b, 0) }

// BenchmarkMachineThroughputSerial streams the frame on one worker — the
// before side of the node-parallel speedup.
func BenchmarkMachineThroughputSerial(b *testing.B) { benchMachineThroughput(b, 1) }

// benchEngineFlight runs the BenchmarkMachineThroughput configuration with
// the flight recorder optionally attached. BenchmarkEngineFlightOff is the
// guard for the recorder's zero-cost-when-disabled contract: compare it
// against BenchmarkMachineThroughput (the seed engine benchmark) — the
// disabled hook is one nil check per triangle and must not move the number.
func benchEngineFlight(b *testing.B, flight bool) {
	bm, err := scene.ByName("truc640", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	s := bm.MustBuild()
	m, err := core.NewMachine(s, core.Config{
		Procs: 16, Distribution: distrib.BlockKind, TileSize: 16,
		CacheKind: core.CacheReal, Bus: memory.BusConfig{TexelsPerCycle: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	if flight {
		m.EnableFlightRecorder(0)
	}
	b.ResetTimer()
	var frags uint64
	for i := 0; i < b.N; i++ {
		res := m.Run()
		frags += res.Fragments
	}
	b.ReportMetric(float64(frags)/b.Elapsed().Seconds(), "frags/s")
}

// BenchmarkEngineFlightOff is BenchmarkMachineThroughput with the recorder
// constructed but never attached — the shipping default.
func BenchmarkEngineFlightOff(b *testing.B) { benchEngineFlight(b, false) }

// BenchmarkEngineFlightOn measures the recording overhead when enabled.
func BenchmarkEngineFlightOn(b *testing.B) { benchEngineFlight(b, true) }

// BenchmarkSceneSynthesis measures procedural scene generation alone.
func BenchmarkSceneSynthesis(b *testing.B) {
	bm, err := scene.ByName("room3", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasure measures the Table 1 analysis pass alone.
func BenchmarkMeasure(b *testing.B) {
	bm, err := scene.ByName("massive11255", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	s := bm.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := trace.Measure(s)
		if err != nil {
			b.Fatal(err)
		}
		if st.PixelsRendered == 0 {
			b.Fatal("no pixels")
		}
	}
}
