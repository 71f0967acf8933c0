// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment builds the benchmark scenes at a chosen
// resolution scale, sweeps the machine configurations the paper sweeps, and
// prints the same rows/series the paper plots, so shapes can be compared
// directly (who wins, by what factor, where the crossovers fall). The
// paper's figures are lists of sweep specs run by the sweep engine, plus a
// formatter that reads the rows.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Options configure an experiment run.
type Options struct {
	// Scale is the scene resolution scale (1 = the paper's full frames).
	// Defaults to 0.5, which preserves all Table 1 shape properties at a
	// quarter of the simulation cost. Scales below ~0.4 degrade scene
	// fidelity and are only for smoke tests.
	Scale float64
	// Parallelism bounds concurrent machine simulations (default: NumCPU).
	Parallelism int
	// OutDir is where image-producing experiments write files (default
	// "out").
	OutDir string
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.5
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.OutDir == "" {
		o.OutDir = "out"
	}
	return o
}

// Report is an experiment's printable result.
type Report struct {
	ID    string
	Title string
	Notes []string
	Table []*stats.Table
	// Chart holds ASCII renderings of the figure's curves (text output
	// only; CSV/JSON carry the tables).
	Chart []*stats.Chart
}

// Format writes the report to w.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, t := range r.Table {
		fmt.Fprintln(w)
		t.Format(w)
	}
	for _, c := range r.Chart {
		fmt.Fprintln(w)
		fmt.Fprint(w, c.String())
	}
}

// Experiment couples an identifier with its runner. Runners honour ctx:
// cancelling it abandons in-flight simulations and returns ctx.Err().
type Experiment struct {
	ID    string
	Title string
	Run   func(context.Context, Options) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Benchmark scene characteristics (Table 1)", RunTable1},
		{"fig5-imbalance", "Load imbalance vs distribution parameters, 64 processors (Fig. 5 top)", RunFig5Imbalance},
		{"fig5-speedup", "Perfect-cache speedup vs processors, 32massive11255 (Fig. 5 bottom)", RunFig5Speedup},
		{"fig6-locality", "Texel-to-fragment ratio vs processors (Fig. 6)", RunFig6Locality},
		{"fig7", "Speedups with a 1 texel/pixel bus (Fig. 7)", RunFig7},
		{"fig7-bus2", "Speedups with a 2 texel/pixel bus (§7, TR [15])", RunFig7Bus2},
		{"fig8-buffer", "Speedup vs block width and triangle-buffer size, truc640 (Fig. 8)", RunFig8},
		{"fig9-images", "Benchmark depth-complexity images (Fig. 9)", RunFig9},
		{"ext-l2", "Extension: inter-frame L2 texture locality vs viewpoint panning (§9)", RunExtL2},
		{"ext-dynamic", "Extension: dynamic tile assignment vs static interleave (§9)", RunExtDynamic},
		{"ext-prefetch", "Ablation: prefetch fragment-FIFO depth", RunExtPrefetch},
		{"ext-cache", "Ablation: texture-cache size and associativity", RunExtCache},
		{"ext-sortlast", "Extension: sort-middle vs sort-last locality and balance", RunExtSortLast},
		{"ext-overlap", "Validation: Chen et al. overlap model vs measured routing", RunExtOverlap},
		{"ext-interleave", "Ablation: tile-to-processor interleave pattern", RunExtInterleave},
	}
}

// ByID finds an experiment by identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// The parameter sweeps the paper uses.
var (
	blockWidths = []int{1, 2, 4, 8, 16, 32, 64, 128}
	sliLines    = []int{1, 2, 4, 8, 16, 32}
)

// buildScene constructs one benchmark scene at the option scale.
func buildScene(ctx context.Context, name string, opt Options) (*trace.Scene, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := scene.ByName(name, opt.Scale)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// buildAllScenes constructs the full suite in parallel.
func buildAllScenes(ctx context.Context, opt Options) (map[string]*trace.Scene, error) {
	names := scene.Names()
	built := make([]*trace.Scene, len(names))
	err := par.ForEach(ctx, opt.Parallelism, len(names), func(i int) error {
		s, err := buildScene(ctx, names[i], opt)
		built[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*trace.Scene, len(names))
	for i, n := range names {
		out[n] = built[i]
	}
	return out, nil
}

// cell identifies one row among a figure's sweeps. Buffer is zero unless
// the spec sweeps the buffer axis.
type cell struct {
	scene, dist         string
	procs, size, buffer int
}

// runSweeps runs a figure's specs at the option scale one after another,
// each on the whole worker budget, and indexes every row by its cell.
func runSweeps(ctx context.Context, opt Options, specs []sweep.Spec) (map[cell]sweep.Row, error) {
	cells := make(map[cell]sweep.Row)
	for _, s := range specs {
		s.Scale = opt.Scale
		res, err := sweep.RunWith(ctx, s, sweep.RunOpts{Parallelism: opt.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("sweeping %s / %s: %w", s.Scene, s.Dist, err)
		}
		for _, r := range res.Rows {
			cells[cell{r.Scene, r.Dist, r.Procs, r.Size, r.Buffer}] = r
		}
	}
	return cells, nil
}

// paperDists expands base into the paper's two distributions on each scene:
// block over blockSizes, then sli over sliLines.
func paperDists(base sweep.Spec, scenes []string, blockSizes []int) []sweep.Spec {
	var specs []sweep.Spec
	for _, n := range scenes {
		for _, d := range []struct {
			dist  string
			sizes []int
		}{{"block", blockSizes}, {"sli", sliLines}} {
			s := base
			s.Scene, s.Dist, s.Sizes = n, d.dist, d.sizes
			specs = append(specs, s)
		}
	}
	return specs
}

// simulate runs one configuration, wrapping errors with simulation context.
func simulate(ctx context.Context, s *trace.Scene, cfg core.Config) (*core.Result, error) {
	res, err := core.SimulateContext(ctx, s, cfg)
	if err != nil {
		return nil, fmt.Errorf("simulating %s on %s: %w", s.Name, cfg.Name(), err)
	}
	return res, nil
}

// scaleNote is attached to reports so printed absolute numbers are read in
// context.
func scaleNote(opt Options) string {
	return fmt.Sprintf("scene scale %.2f (screen and workload cropped; tile sizes and cache geometry as in the paper)", opt.Scale)
}
