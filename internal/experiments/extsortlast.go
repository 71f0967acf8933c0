package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/stats"
)

// RunExtSortLast contrasts the paper's sort-middle machine with the
// sort-last alternative of its references [13]/[14]: object distribution
// with full-screen rendering per node and ideal composition. Sort-last
// keeps each object's texture on one node (better locality) but ties load
// balance to object sizes and gives up strict OpenGL ordering — the paper's
// §1 reason to build sort-middle anyway.
func RunExtSortLast(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	scenes, err := buildAllScenes(ctx, opt)
	if err != nil {
		return nil, err
	}
	names := scene.Names()
	const procs = 16
	bus := memory.BusConfig{TexelsPerCycle: 1}

	type row struct {
		middleSpeedup, lastSpeedup   float64
		middleRatio, lastRatio       float64
		middleRouted, lastRouted     uint64
		middleImbalance, lastImbalan float64
	}
	rows := make([]row, len(names))
	err = par.ForEach(ctx, opt.Parallelism, len(names), func(i int) error {
		s := scenes[names[i]]
		base, err := simulate(ctx, s, core.Config{Procs: 1, CacheKind: core.CacheReal, Bus: bus})
		if err != nil {
			return err
		}
		middle, err := simulate(ctx, s, core.Config{
			Procs: procs, Distribution: distrib.BlockKind, TileSize: 16,
			CacheKind: core.CacheReal, Bus: bus,
		})
		if err != nil {
			return err
		}
		last, err := core.SimulateSortLastContext(ctx, s, core.Config{
			Procs: procs, CacheKind: core.CacheReal, Bus: bus,
		}, core.SortLastChunked)
		if err != nil {
			return err
		}
		rows[i] = row{
			middleSpeedup:   base.Cycles / middle.Cycles,
			lastSpeedup:     base.Cycles / last.Cycles,
			middleRatio:     middle.TexelToFragment(),
			lastRatio:       last.TexelToFragment(),
			middleRouted:    middle.TrianglesRouted,
			lastRouted:      last.TrianglesRouted,
			middleImbalance: middle.PixelImbalance(),
			lastImbalan:     last.PixelImbalance(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	speedTab := &stats.Table{
		Caption: "16 processors, 1 texel/pixel bus: sort-middle (block-16) vs sort-last (chunked objects)",
		Header: []string{"scene", "middle speedup", "last speedup",
			"middle texel/frag", "last texel/frag",
			"middle imbalance", "last imbalance"},
	}
	routeTab := &stats.Table{
		Caption: "Triangle deliveries (the sort-middle overlap cost vs one-node-per-triangle sort-last)",
		Header:  []string{"scene", "triangles", "middle routed", "last routed"},
	}
	for i, n := range names {
		r := rows[i]
		speedTab.AddRow(n,
			stats.F(r.middleSpeedup, 1), stats.F(r.lastSpeedup, 1),
			stats.F(r.middleRatio, 2), stats.F(r.lastRatio, 2),
			stats.Pct(r.middleImbalance), stats.Pct(r.lastImbalan))
		routeTab.AddRow(n,
			stats.F(float64(len(scenes[n].Triangles)), 0),
			stats.F(float64(r.middleRouted), 0),
			stats.F(float64(r.lastRouted), 0))
	}

	return &Report{
		ID:    "ext-sortlast",
		Title: "Extension: sort-middle vs sort-last texture locality and balance",
		Notes: []string{
			scaleNote(opt),
			"expect: sort-last fetches fewer texels (objects keep their textures local) and never duplicates triangles, but its pixel balance follows object sizes; sort-middle pays overlap and line-splitting for strict ordering and screen-even balance",
		},
		Table: []*stats.Table{speedTab, routeTab},
	}, nil
}
