package experiments

import (
	"context"
	"fmt"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// fig6Procs is the x-axis of Figure 6.
var fig6Procs = []int{1, 2, 4, 8, 16, 32, 64}

// fig6BlockWidths drops widths 1 and 2, which the paper removed "for they
// often have ratios bigger than 8, the ratio of a cacheless machine".
var fig6BlockWidths = []int{4, 8, 16, 32, 64, 128}

// fig6Scenes are the two scenes plotted (the paper notes room3, blowout775
// and truc640 behave like 32massive11255, and quake like teapot.full).
var fig6Scenes = []string{"32massive11255", "teapot.full"}

// RunFig6Locality reproduces Figure 6: the average external texel-to-
// fragment bandwidth each node's 16 KB cache demands, versus processor
// count, for every distribution parameter, on an infinite bus.
func RunFig6Locality(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	cells, err := runSweeps(ctx, opt, paperDists(sweep.Spec{
		Procs: fig6Procs, Cache: "real",
	}, fig6Scenes, fig6BlockWidths))
	if err != nil {
		return nil, err
	}

	var tables []*stats.Table
	for _, sceneName := range fig6Scenes {
		for _, spec := range []struct {
			dist  string
			sizes []int
			label string
		}{
			{"block", fig6BlockWidths, "w"},
			{"sli", sliLines, "l"},
		} {
			header := []string{"procs"}
			for _, sz := range spec.sizes {
				header = append(header, fmt.Sprintf("%s%d", spec.label, sz))
			}
			t := &stats.Table{
				Caption: fmt.Sprintf("%s / %s distribution: texel-to-fragment ratio (16 KB caches, infinite bus)",
					sceneName, spec.dist),
				Header: header,
			}
			for _, procs := range fig6Procs {
				row := []string{fmt.Sprintf("%d", procs)}
				for _, sz := range spec.sizes {
					row = append(row, stats.F(cells[cell{scene: sceneName, dist: spec.dist, procs: procs, size: sz}].TexelPerFrag, 2))
				}
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}

	var charts []*stats.Chart
	for _, sceneName := range fig6Scenes {
		ch := &stats.Chart{
			Title:  fmt.Sprintf("%s: texel-to-fragment ratio vs processors", sceneName),
			XLabel: "processors",
			YLabel: "texels/fragment",
		}
		for _, pick := range []struct {
			dist  string
			size  int
			label string
		}{
			{"block", 4, "block4"},
			{"block", 16, "block16"},
			{"sli", 1, "sli1"},
			{"sli", 2, "sli2"},
		} {
			s := stats.Series{Name: pick.label}
			for _, procs := range fig6Procs {
				s.X = append(s.X, float64(procs))
				s.Y = append(s.Y, cells[cell{scene: sceneName, dist: pick.dist, procs: procs, size: pick.size}].TexelPerFrag)
			}
			ch.Series = append(ch.Series, s)
		}
		charts = append(charts, ch)
	}

	return &Report{
		ID:    "fig6-locality",
		Title: "Impact of the distribution scheme on texel locality",
		Notes: []string{
			scaleNote(opt),
			"expect: ratio rises as tiles shrink and as processors multiply; SLI-2 markedly worse than block-16; teapot.full's ratios dwarf 32massive11255's",
		},
		Table: tables,
		Chart: charts,
	}, nil
}
