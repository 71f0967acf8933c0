package experiments

import (
	"context"
	"fmt"

	"repro/internal/scene"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// fig7Procs are the machine sizes of Figure 7's six bar charts.
var fig7Procs = []int{4, 16, 64}

// RunFig7 reproduces Figure 7: speedups of every benchmark on 4-, 16- and
// 64-processor machines with 16 KB caches and a 1 texel/pixel bus, for both
// distributions and all sizes.
func RunFig7(ctx context.Context, opt Options) (*Report, error) {
	return runFig7(ctx, opt, 1, "fig7", "Speedups with a bus ratio of 1 texel/pixel")
}

// RunFig7Bus2 is the companion with the 2 texel/pixel bus, whose results the
// paper defers to its technical report [15] and summarizes in §7.
func RunFig7Bus2(ctx context.Context, opt Options) (*Report, error) {
	return runFig7(ctx, opt, 2, "fig7-bus2", "Speedups with a bus ratio of 2 texels/pixel")
}

func runFig7(ctx context.Context, opt Options, busRatio float64, id, title string) (*Report, error) {
	opt = opt.withDefaults()
	names := scene.Names()
	cells, err := runSweeps(ctx, opt, paperDists(sweep.Spec{
		Procs: fig7Procs, Cache: "real", Bus: busRatio,
	}, names, blockWidths))
	if err != nil {
		return nil, err
	}

	var tables []*stats.Table
	for _, spec := range []struct {
		dist  string
		sizes []int
		label string
	}{
		{"block", blockWidths, "w"},
		{"sli", sliLines, "l"},
	} {
		for _, procs := range fig7Procs {
			header := []string{"scene"}
			for _, sz := range spec.sizes {
				header = append(header, fmt.Sprintf("%s%d", spec.label, sz))
			}
			header = append(header, "best")
			t := &stats.Table{
				Caption: fmt.Sprintf("%d processors / %s: speedup (16 KB caches, %s texel/pixel bus)",
					procs, spec.dist, stats.F(busRatio, 0)),
				Header: header,
			}
			for _, n := range names {
				row := []string{n}
				bestSize, bestVal := 0, 0.0
				for _, sz := range spec.sizes {
					v := cells[cell{scene: n, dist: spec.dist, procs: procs, size: sz}].Speedup
					row = append(row, stats.F(v, 1))
					if v > bestVal {
						bestVal, bestSize = v, sz
					}
				}
				row = append(row, fmt.Sprintf("%s%d", spec.label, bestSize))
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}

	return &Report{
		ID:    id,
		Title: title,
		Notes: []string{
			scaleNote(opt),
			"expect: best block width ≈16 at every machine size; best SLI group shrinks as processors grow (≈16/8/4 lines at 4/16/64); block beats SLI at 64 processors, parity at 4–16",
		},
		Table: tables,
	}, nil
}
