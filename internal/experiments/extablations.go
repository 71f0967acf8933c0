package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/par"
	"repro/internal/stats"
)

// extPrefetchDepths sweeps the Igehy fragment-FIFO depth around the default
// of 32.
var extPrefetchDepths = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// RunExtPrefetch ablates the prefetch fragment FIFO: with depth 1 every
// miss's fetch serializes behind the scan (no latency hiding); deep FIFOs
// approach the pure-throughput bound. The paper adopts the Igehy result
// that prefetching reaches zero-latency performance — this experiment shows
// how much of the machine's speed that assumption carries.
func RunExtPrefetch(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	const sceneName = "truc640"
	s, err := buildScene(ctx, sceneName, opt)
	if err != nil {
		return nil, err
	}

	type res struct {
		cycles float64
		stall  float64
	}
	cells := make([]res, len(extPrefetchDepths))
	err = par.ForEach(ctx, opt.Parallelism, len(extPrefetchDepths), func(i int) error {
		depth := extPrefetchDepths[i]
		r, err := simulate(ctx, s, core.Config{
			Procs: 16, Distribution: distrib.BlockKind, TileSize: 16,
			CacheKind:     core.CacheReal,
			Bus:           memory.BusConfig{TexelsPerCycle: 1},
			PrefetchDepth: depth,
		})
		if err != nil {
			return err
		}
		var stall float64
		for _, n := range r.Nodes {
			stall += n.StallCycles
		}
		cells[i] = res{cycles: r.Cycles, stall: stall}
		return nil
	})
	if err != nil {
		return nil, err
	}

	best := cells[len(cells)-1].cycles
	tab := &stats.Table{
		Caption: fmt.Sprintf("%s, 16 processors, block-16, 1 texel/pixel bus: prefetch fragment-FIFO depth", sceneName),
		Header:  []string{"depth", "cycles", "vs deepest", "total stall cycles"},
	}
	for i, d := range extPrefetchDepths {
		c := cells[i]
		tab.AddRow(fmt.Sprintf("%d", d), stats.F(c.cycles, 0),
			stats.Pct(c.cycles/best-1), stats.F(c.stall, 0))
	}
	return &Report{
		ID:    "ext-prefetch",
		Title: "Ablation: prefetch fragment-FIFO depth (the zero-latency assumption)",
		Notes: []string{
			scaleNote(opt),
			"expect: shallow FIFOs pay heavy stalls; returns diminish past the default depth of 32",
		},
		Table: []*stats.Table{tab},
	}, nil
}

// Cache-geometry ablation grids.
var (
	extCacheSizesKB = []int{4, 8, 16, 32, 64}
	extCacheWays    = []int{1, 2, 4, 8}
)

// RunExtCache ablates the node cache geometry on a single processor with an
// infinite bus, measuring the texel-to-fragment ratio — re-examining the
// Hakura–Gupta 16 KB/4-way operating point inside our framework.
func RunExtCache(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	const sceneName = "32massive11255"
	s, err := buildScene(ctx, sceneName, opt)
	if err != nil {
		return nil, err
	}

	// cells is size-major: cell i is size i/len(extCacheWays), ways
	// i%len(extCacheWays).
	cells := make([]float64, len(extCacheSizesKB)*len(extCacheWays))
	err = par.ForEach(ctx, opt.Parallelism, len(cells), func(i int) error {
		kb, ways := extCacheSizesKB[i/len(extCacheWays)], extCacheWays[i%len(extCacheWays)]
		r, err := simulate(ctx, s, core.Config{
			Procs: 1, CacheKind: core.CacheReal,
			CacheConfig: cache.Config{SizeBytes: kb * 1024, Ways: ways, LineBytes: 64},
		})
		if err != nil {
			return err
		}
		cells[i] = r.TexelToFragment()
		return nil
	})
	if err != nil {
		return nil, err
	}

	header := []string{"size"}
	for _, w := range extCacheWays {
		header = append(header, fmt.Sprintf("%d-way", w))
	}
	tab := &stats.Table{
		Caption: fmt.Sprintf("%s, 1 processor, infinite bus: texel-to-fragment ratio by cache geometry", sceneName),
		Header:  header,
	}
	for si, kb := range extCacheSizesKB {
		row := []string{fmt.Sprintf("%dKB", kb)}
		for wi := range extCacheWays {
			row = append(row, stats.F(cells[si*len(extCacheWays)+wi], 2))
		}
		tab.AddRow(row...)
	}
	return &Report{
		ID:    "ext-cache",
		Title: "Ablation: texture-cache size and associativity (the Hakura–Gupta operating point)",
		Notes: []string{
			scaleNote(opt),
			"expect: strong returns up to ~16 KB, diminishing beyond; associativity matters most for small caches",
		},
		Table: []*stats.Table{tab},
	}, nil
}
