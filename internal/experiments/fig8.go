package experiments

import (
	"context"
	"fmt"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// fig8Buffers is the triangle-FIFO sweep of Figure 8.
var fig8Buffers = []int{1, 5, 10, 20, 50, 100, 500, 10000}

// fig8Procs is the machine size of Figure 8.
const fig8Procs = 64

// RunFig8 reproduces Figure 8: speedup of truc640 on a 64-processor block
// machine versus block width and triangle-buffer size, with a perfect cache
// and with the 16 KB cache on a 2 texel/pixel bus.
func RunFig8(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	const sceneName = "truc640"
	var tables []*stats.Table
	for _, v := range []struct {
		name  string
		cache string
		bus   float64
	}{
		{"perfect cache", "perfect", 0},
		{"16 KB cache, 2 texels/pixel bus", "real", 2},
	} {
		cells, err := runSweeps(ctx, opt, []sweep.Spec{{
			Scene: sceneName, Procs: []int{fig8Procs}, Sizes: blockWidths,
			Buffers: fig8Buffers, Cache: v.cache, Bus: v.bus,
		}})
		if err != nil {
			return nil, err
		}
		header := []string{"buffer"}
		for _, w := range blockWidths {
			header = append(header, fmt.Sprintf("w%d", w))
		}
		header = append(header, "best")
		t := &stats.Table{
			Caption: fmt.Sprintf("%s, %d processors, block distribution: speedup vs block width and buffer size (%s)",
				sceneName, fig8Procs, v.name),
			Header: header,
		}
		for _, buf := range fig8Buffers {
			row := []string{fmt.Sprintf("%d", buf)}
			bestW, bestV := 0, 0.0
			for _, w := range blockWidths {
				val := cells[cell{scene: sceneName, dist: "block", procs: fig8Procs, size: w, buffer: buf}].Speedup
				row = append(row, stats.F(val, 1))
				if val > bestV {
					bestV, bestW = val, w
				}
			}
			row = append(row, fmt.Sprintf("w%d", bestW))
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}

	return &Report{
		ID:    "fig8-buffer",
		Title: "Effect of triangle buffering",
		Notes: []string{
			scaleNote(opt),
			"expect: ≈500 entries needed to approach the ideal; small buffers reduce peak speedup and shift the best width smaller; the loss is larger with the real cache than with the perfect one",
		},
		Table: tables,
	}, nil
}
