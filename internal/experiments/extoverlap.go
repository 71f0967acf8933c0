package experiments

import (
	"context"
	"fmt"

	"repro/internal/distrib"
	"repro/internal/overlap"
	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/stats"
)

// extOverlapWidths are the block widths the overlap validation sweeps.
var extOverlapWidths = []int{4, 8, 16, 32, 64}

// RunExtOverlap validates the Chen et al. analytical overlap model the
// paper leans on for its small-triangle setup argument: per benchmark and
// block width, the measured mean triangle-delivery count (bounding-box
// routing, exactly what the machine's distributor does) against the
// analytical expectation, plus the predicted share of machine work that is
// triangle setup.
func RunExtOverlap(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	scenes, err := buildAllScenes(ctx, opt)
	if err != nil {
		return nil, err
	}
	names := scene.Names()
	const procs = 64

	type cell struct {
		measured float64
		pred     overlap.Prediction
	}
	// cells is scene-major: cell i is scene i/len(extOverlapWidths), width
	// i%len(extOverlapWidths).
	cells := make([]cell, len(names)*len(extOverlapWidths))
	err = par.ForEach(ctx, opt.Parallelism, len(cells), func(i int) error {
		s := scenes[names[i/len(extOverlapWidths)]]
		width := extOverlapWidths[i%len(extOverlapWidths)]
		d, err := distrib.NewBlock(s.Screen, procs, width)
		if err != nil {
			return err
		}
		_, measured := overlap.MeasureRouted(s, d)
		pred, err := overlap.Predict(s, distrib.BlockKind, procs, width, 25)
		if err != nil {
			return err
		}
		cells[i] = cell{measured: measured, pred: pred}
		return nil
	})
	if err != nil {
		return nil, err
	}

	routedTab := &stats.Table{
		Caption: fmt.Sprintf("%d processors / block: mean processors per triangle — measured (Chen model prediction)", procs),
		Header:  append([]string{"width"}, names...),
	}
	setupTab := &stats.Table{
		Caption: "Predicted setup share of machine work (setup cycles / (setup + pixel cycles))",
		Header:  append([]string{"width"}, names...),
	}
	for wi, w := range extOverlapWidths {
		routedRow := []string{fmt.Sprintf("%d", w)}
		setupRow := []string{fmt.Sprintf("%d", w)}
		for ni := range names {
			c := cells[ni*len(extOverlapWidths)+wi]
			routedRow = append(routedRow,
				fmt.Sprintf("%s (%s)", stats.F(c.measured, 2), stats.F(c.pred.MeanRouted, 2)))
			setupRow = append(setupRow, stats.Pct(c.pred.SetupFraction))
		}
		routedTab.AddRow(routedRow...)
		setupTab.AddRow(setupRow...)
	}

	return &Report{
		ID:    "ext-overlap",
		Title: "Validation: Chen et al. analytical primitive-overlap model vs measured routing",
		Notes: []string{
			scaleNote(opt),
			"expect: the analytical expectation tracks the measured mean within ~25 %; the setup share explains the Fig. 5/7 collapse at small tiles",
		},
		Table: []*stats.Table{routedTab, setupTab},
	}, nil
}
