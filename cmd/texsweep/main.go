// Command texsweep runs custom parameter sweeps over the simulator and
// emits one row per configuration — the open-ended counterpart of
// texbench's fixed paper experiments. Rows are the same structures the
// texsimd service returns, so a CSV sweep and an HTTP sweep job with the
// same spec agree exactly.
//
// Example: reproduce the spirit of Figure 7 for one scene, eight
// simulations at a time:
//
//	texsweep -scene truc640 -scale 0.5 -procs 4,16,64 \
//	         -dist block -sizes 4,8,16,32,64 -bus 1 -par 8 -o sweep.csv
//
// Add -json for the service's JSON document instead of CSV.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/resultcache"
	"repro/internal/sweep"
	"repro/internal/telemetry/progress"
)

// cacheMark annotates a -progress line for a row served without simulating.
func cacheMark(hit bool) string {
	if hit {
		return " (cache)"
	}
	return ""
}

// writeOnlyRows wraps a checkpoint store so every read misses: rows are
// persisted for a later -resume run without this run reading any back.
type writeOnlyRows struct {
	sweep.RowStore
}

func (writeOnlyRows) Get(string) ([]byte, bool) { return nil, false }

// flightFileName names one configuration's trace file after its scene,
// distribution, tile size and processor count, plus the row's non-zero
// cache size, bus ratio and buffer depth, so every configuration of an axis
// sweep gets its own file.
func flightFileName(spec sweep.Spec, f sweep.Flight, row sweep.Row) string {
	name := fmt.Sprintf("%s_%s%d_p%d", spec.Scene, spec.Dist, f.Size, f.Procs)
	if row.CacheKB != 0 {
		name += fmt.Sprintf("_c%dkb", row.CacheKB)
	}
	if row.Bus != 0 {
		name += fmt.Sprintf("_bus%g", row.Bus)
	}
	if row.Buffer != 0 {
		name += fmt.Sprintf("_buf%d", row.Buffer)
	}
	return name + ".trace.json"
}

func main() {
	var (
		sceneName = flag.String("scene", "truc640", "benchmark scene")
		scale     = flag.Float64("scale", 0.5, "resolution scale")
		procsList = flag.String("procs", "1,4,16,64", "processor counts (comma-separated)")
		dist      = flag.String("dist", "block", "distribution: block, sli or blockskewed")
		sizesList = flag.String("sizes", "4,8,16,32,64", "tile sizes (comma-separated)")
		busRatio  = flag.Float64("bus", 1, "bus texels per pixel-cycle (0 = infinite)")
		cacheKind = flag.String("cache", "real", "cache model: real, perfect or none")
		buffer    = flag.Int("buffer", 0, "triangle buffer entries (0 = paper default)")
		cacheList = flag.String("caches", "", "cache sizes in KB to sweep (comma-separated; requires the real cache model)")
		busList   = flag.String("buses", "", "bus ratios to sweep (comma-separated; replaces -bus)")
		bufList   = flag.String("buffers", "", "triangle buffer sizes to sweep (comma-separated; replaces -buffer)")
		noMemo    = flag.Bool("no-memo", false, "disable cross-configuration raster memoization (identical output, more rasterization work)")
		par       = flag.Int("par", 1, "concurrent simulations")
		nodePar   = flag.Int("node-par", 0, "worker bound for building and replaying each simulation's frames (0 = share -par budget, 1 = one worker; results are identical at every setting)")
		asJSON    = flag.Bool("json", false, "emit the full JSON document instead of CSV")
		outPath   = flag.String("o", "", "output file (default stdout)")
		flightDir = flag.String("flight", "", "record per-node phase timelines and write one Chrome trace-event JSON file per configuration into this directory (load in Perfetto)")
		flightInt = flag.Float64("flight-interval", 0, "flight recorder bucket width in cycles (0 = auto)")
		progFlag  = flag.Bool("progress", false, "print each configuration's completion to stderr as the sweep runs")
		ckptDir   = flag.String("checkpoint-dir", "", "persist each completed row here as it lands (a killed sweep can be resumed with -resume)")
		resume    = flag.Bool("resume", false, "restore completed rows from -checkpoint-dir instead of re-simulating them")
	)
	flag.Parse()

	procs, err := cliutil.ParsePositiveIntList(*procsList)
	if err != nil {
		cliutil.Fail("texsweep", fmt.Errorf("-procs: %w", err))
	}
	sizes, err := cliutil.ParsePositiveIntList(*sizesList)
	if err != nil {
		cliutil.Fail("texsweep", fmt.Errorf("-sizes: %w", err))
	}
	if *par < 0 {
		cliutil.Usage("texsweep", fmt.Sprintf("-par %d must be non-negative", *par))
	}
	if *nodePar < 0 {
		cliutil.Usage("texsweep", fmt.Sprintf("-node-par %d must be non-negative", *nodePar))
	}
	// 0 is the auto default, so explicitly asking for <= 0 is always a
	// mistake (a typo'd unit, usually) rather than a request for auto.
	// An axis flag replaces its scalar twin; naming both is ambiguous.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if f.Name == "flight-interval" && *flightInt <= 0 {
			cliutil.Usage("texsweep", fmt.Sprintf("-flight-interval %v must be positive", *flightInt))
		}
	})
	if set["buses"] && set["bus"] {
		cliutil.Usage("texsweep", "-buses and -bus are mutually exclusive")
	}
	if set["buffers"] && set["buffer"] {
		cliutil.Usage("texsweep", "-buffers and -buffer are mutually exclusive")
	}
	if *resume && *ckptDir == "" {
		cliutil.Usage("texsweep", "-resume requires -checkpoint-dir")
	}

	spec := sweep.Spec{
		Scene:  *sceneName,
		Scale:  *scale,
		Dist:   *dist,
		Procs:  procs,
		Sizes:  sizes,
		Bus:    *busRatio,
		Cache:  *cacheKind,
		Buffer: *buffer,
	}
	if *cacheList != "" {
		spec.Caches, err = cliutil.ParsePositiveIntList(*cacheList)
		if err != nil {
			cliutil.Fail("texsweep", fmt.Errorf("-caches: %w", err))
		}
	}
	if *busList != "" {
		spec.Buses, err = cliutil.ParseNonNegativeFloatList(*busList)
		if err != nil {
			cliutil.Fail("texsweep", fmt.Errorf("-buses: %w", err))
		}
		spec.Bus = 0 // the axis replaces the unset scalar default
	}
	if *bufList != "" {
		spec.Buffers, err = cliutil.ParsePositiveIntList(*bufList)
		if err != nil {
			cliutil.Fail("texsweep", fmt.Errorf("-buffers: %w", err))
		}
	}
	if *flightDir != "" {
		spec.Flight = true
		spec.FlightInterval = *flightInt
	}
	cliutil.Check("texsweep", spec.Validate())

	// Ctrl-C / SIGTERM abandons the remaining configurations.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var plan sweep.PlanStats
	opts := sweep.RunOpts{
		Parallelism:     *par,
		NodeParallelism: *nodePar,
		NoMemo:          *noMemo,
		Plan:            &plan,
	}
	if *ckptDir != "" {
		rc, err := resultcache.New(resultcache.Config{Dir: *ckptDir, MaxEntries: 4096})
		cliutil.Check("texsweep", err)
		var store sweep.RowStore = rc.Namespace("sweeprow")
		if !*resume {
			// Without -resume the checkpoint directory is write-only: rows
			// still land for a later -resume run, but nothing previously
			// checkpointed feeds this one.
			store = writeOnlyRows{store}
		}
		opts.Rows = store
	}

	// -progress rides the same broker the texsimd SSE endpoint uses: the
	// engine publishes once, and a local goroutine prints each row event to
	// stderr as it lands.
	finishProgress := func(error) {}
	if *progFlag {
		b := progress.NewBroker()
		opts.Progress = progress.NewSink(b, "sweep")
		sub := b.Subscribe("sweep", 0)
		printed := make(chan struct{})
		go func() {
			defer close(printed)
			for {
				ev, ok := sub.Next(context.Background())
				if !ok || ev.Terminal() {
					return
				}
				fmt.Fprintf(os.Stderr, "texsweep: row %d/%d %s w%d p%d cycles=%.0f frags=%d%s %.2fs\n",
					ev.Row+1, ev.Total, spec.Dist, ev.Size, ev.Procs,
					ev.Cycles, ev.Frags, cacheMark(ev.CacheHit), ev.WallSeconds)
			}
		}()
		// Terminate the stream before cliutil.Check can exit, and wait for
		// the printer so no row line is lost.
		finishProgress = func(err error) {
			if err != nil {
				b.End("sweep", "failed", err.Error())
			} else {
				b.End("sweep", "done", "")
			}
			<-printed
		}
	}

	res, err := sweep.RunWith(ctx, spec, opts)
	finishProgress(err)
	cliutil.Check("texsweep", err)

	// One machine-parseable planner line per run: CI greps it to assert the
	// memoized path really rasterized less.
	fmt.Fprintf(os.Stderr, "texsweep: plan points=%d baselines=%d classes=%d rasterized=%d saved=%d probes=%d checkpointed=%d memoized=%t\n",
		plan.Points, plan.Baselines, plan.Classes, plan.Rasterizations, plan.Saved, plan.Probes, plan.Checkpointed, plan.Memoized)
	if *asJSON {
		res.Plan = &plan
	}

	if *flightDir != "" {
		cliutil.Check("texsweep", os.MkdirAll(*flightDir, 0o755))
		for i, f := range res.Flights {
			path := filepath.Join(*flightDir, flightFileName(spec, f, res.Rows[i]))
			cliutil.Check("texsweep", os.WriteFile(path, f.Trace, 0o644))
			var busy float64
			for _, n := range f.Summary {
				busy += n.Utilization
			}
			fmt.Fprintf(os.Stderr, "texsweep: wrote %s (%d nodes, mean utilization %.1f%%)\n",
				path, len(f.Summary), 100*busy/float64(len(f.Summary)))
		}
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		cliutil.Check("texsweep", err)
		defer f.Close()
		out = f
	}
	if *asJSON {
		cliutil.Check("texsweep", sweep.WriteJSON(out, res))
	} else {
		cliutil.Check("texsweep", sweep.WriteCSV(out, res.Rows))
	}
}
