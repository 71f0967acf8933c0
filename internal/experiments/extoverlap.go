package experiments

import (
	"context"
	"fmt"
	"sync"

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
	type key struct {
		scene string
		width int
	}
	cells := make(map[key]cell)
	var jobs []key
	for _, n := range names {
		for _, w := range extOverlapWidths {
			jobs = append(jobs, key{n, w})
		}
	}
	var mu sync.Mutex
	err = par.ForEach(ctx, opt.Parallelism, len(jobs), func(i int) error {
		k := jobs[i]
		s := scenes[k.scene]
		d, err := distrib.NewBlock(s.Screen, procs, k.width)
		if err != nil {
			return err
		}
		_, measured := overlap.MeasureRouted(s, d)
		pred, err := overlap.Predict(s, distrib.BlockKind, procs, k.width, 25)
		if err != nil {
			return err
		}
		mu.Lock()
		cells[k] = cell{measured: measured, pred: pred}
		mu.Unlock()
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
	for _, w := range extOverlapWidths {
		routedRow := []string{fmt.Sprintf("%d", w)}
		setupRow := []string{fmt.Sprintf("%d", w)}
		for _, n := range names {
			c := cells[key{n, w}]
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
