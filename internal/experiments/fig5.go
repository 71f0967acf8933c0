package experiments

import (
	"context"
	"fmt"

	"repro/internal/scene"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// fig5Procs is the machine size of the paper's Figure 5 imbalance graphs.
const fig5Procs = 64

// RunFig5Imbalance reproduces the top half of Figure 5: the percent
// difference between the busiest and the average processor's pixel work, on
// a 64-processor machine with a perfect cache, for every distribution
// parameter and benchmark.
func RunFig5Imbalance(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	names := scene.Names()
	cells, err := runSweeps(ctx, opt, paperDists(sweep.Spec{
		Procs: []int{fig5Procs}, Cache: "perfect",
	}, names, blockWidths))
	if err != nil {
		return nil, err
	}

	mkTable := func(dist string, sizes []int, sizeLabel string) *stats.Table {
		t := &stats.Table{
			Caption: fmt.Sprintf("%d processors / %s: busiest-vs-average pixel work (%%)", fig5Procs, dist),
			Header:  append([]string{sizeLabel}, names...),
		}
		for _, sz := range sizes {
			row := []string{fmt.Sprintf("%d", sz)}
			for _, n := range names {
				row = append(row, stats.Pct(cells[cell{scene: n, dist: dist, procs: fig5Procs, size: sz}].PixelImbalance))
			}
			t.AddRow(row...)
		}
		return t
	}

	return &Report{
		ID:    "fig5-imbalance",
		Title: "Impact of the distribution scheme on load balancing",
		Notes: []string{
			scaleNote(opt),
			"perfect texture cache, infinite bus: pure pixel-work balance",
			"expect: imbalance grows with block size; worst cases reach hundreds of %; block-16 stays modest",
		},
		Table: []*stats.Table{
			mkTable("block", blockWidths, "width"),
			mkTable("sli", sliLines, "lines"),
		},
	}, nil
}

// fig5SpeedupProcs are the x-axis machine sizes of Figure 5's speedup plots.
var fig5SpeedupProcs = []int{1, 2, 4, 8, 16, 32, 48, 64}

// RunFig5Speedup reproduces the bottom half of Figure 5: perfect-cache
// speedup of 32massive11255 versus processor count for every distribution
// parameter, exposing the small-triangle setup overhead of tiny tiles.
func RunFig5Speedup(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	const sceneName = "32massive11255"
	cells, err := runSweeps(ctx, opt, paperDists(sweep.Spec{
		Procs: fig5SpeedupProcs, Cache: "perfect",
	}, []string{sceneName}, blockWidths))
	if err != nil {
		return nil, err
	}

	mkTable := func(dist string, sizes []int, sizeLabel string) *stats.Table {
		header := []string{"procs"}
		for _, sz := range sizes {
			header = append(header, fmt.Sprintf("%s%d", sizeLabel, sz))
		}
		t := &stats.Table{
			Caption: fmt.Sprintf("%s distribution: speedup of %s (perfect cache)", dist, sceneName),
			Header:  header,
		}
		for _, procs := range fig5SpeedupProcs {
			row := []string{fmt.Sprintf("%d", procs)}
			for _, sz := range sizes {
				row = append(row, stats.F(cells[cell{scene: sceneName, dist: dist, procs: procs, size: sz}].Speedup, 1))
			}
			t.AddRow(row...)
		}
		return t
	}

	mkChart := func(dist string, sizes []int, sizeLabel string) *stats.Chart {
		ch := &stats.Chart{
			Title:  fmt.Sprintf("%s distribution: speedup vs processors (perfect cache)", dist),
			XLabel: "processors",
			YLabel: "speedup",
		}
		for _, sz := range sizes {
			s := stats.Series{Name: fmt.Sprintf("%s%d", sizeLabel, sz)}
			for _, procs := range fig5SpeedupProcs {
				s.X = append(s.X, float64(procs))
				s.Y = append(s.Y, cells[cell{scene: sceneName, dist: dist, procs: procs, size: sz}].Speedup)
			}
			ch.Series = append(ch.Series, s)
		}
		return ch
	}

	return &Report{
		ID:    "fig5-speedup",
		Title: "Perfect-cache speedup vs processors (32massive11255)",
		Notes: []string{
			scaleNote(opt),
			"expect: 1-line SLI and block widths < 8 collapse from the 25-pixel setup overhead; large sizes flatten from load imbalance",
		},
		Table: []*stats.Table{
			mkTable("block", blockWidths, "w"),
			mkTable("sli", sliLines, "l"),
		},
		Chart: []*stats.Chart{
			mkChart("block", []int{1, 8, 16, 128}, "w"),
			mkChart("sli", []int{1, 4, 32}, "l"),
		},
	}, nil
}
