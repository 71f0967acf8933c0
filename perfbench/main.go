// Command perfbench is the repository's benchmark: it drives the sweep
// engine and the texsimd service the way their callers do, checks every
// output, and prints end-to-end metrics (untraced run) or per-layer metrics
// (traced run). See README.md for the workloads and metric definitions.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload frame --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/sweep"
)

// benchProcs is the benchmark's CPU budget: GOMAXPROCS and the most
// simulations or clients in flight at once.
const benchProcs = 2

func main() { os.Exit(run()) }

func run() int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fset.Int64("seed", defaultSeed, "input seed")
	secs := fset.Float64("seconds", 15, "measurement time per run")
	traceFlag := fset.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	probe := fset.Bool("setup-probe", false, "set up, print one line when ready and exit (times set-up)")
	record := fset.Bool("record", false, "traced run that records this seed's goldens in "+goldensPath)
	if err := fset.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n",
			strings.Join(workloadNames, ", "))
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	if *probe {
		return setupProbe(*workload, *seed)
	}
	err := bench(*workload, *seed, time.Duration(*secs*float64(time.Second)), *traceFlag == 1 || *record, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// benchSetup is everything a workload prepares before its first timed
// operation.
type benchSetup struct {
	spec  sweep.Spec     // sweep workloads
	sched [][]serviceJob // service
	env   *serviceEnv    // service
}

func newSetup(workload string, seed int64) (*benchSetup, error) {
	if workload != "service" {
		spec, err := sweepSpec(workload, seed)
		if err != nil {
			return nil, err
		}
		return &benchSetup{spec: spec}, spec.Validate()
	}
	sched := serviceSchedule(seed)
	env, err := startService(benchService())
	if err != nil {
		return nil, err
	}
	return &benchSetup{sched: sched, env: env}, nil
}

func (s *benchSetup) close() {
	if s.env != nil {
		s.env.close()
	}
}

// setupProbe is the child side of measureSetup.
func setupProbe(workload string, seed int64) int {
	st, err := newSetup(workload, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println("ready")
	st.close()
	return 0
}

// setupProbes is how many fresh processes measureSetup times; one more
// runs first, untimed, to warm the page cache.
const setupProbes = 7

// measureSetup returns the median time from starting a fresh benchmark
// process to the moment it could issue its first timed operation.
func measureSetup(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i <= setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		_, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		_, _ = io.Copy(io.Discard, out) // drain until the child exits
		if werr := cmd.Wait(); werr != nil || rerr != nil {
			return 0, fmt.Errorf("setup probe: %v %v", werr, rerr)
		}
		if i > 0 {
			xs = append(xs, d.Seconds())
		}
	}
	return median(xs), nil
}

// report is what one run measured and checked.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64 // end-to-end or per-layer
	extra             map[string]float64 // text-only metrics
	golden            golden             // what this run would record
}

func (r *report) fail(msg string) {
	r.failed++
	r.failures = append(r.failures, msg)
}

func bench(workload string, seed int64, dur time.Duration, traced, record bool) error {
	ctx := context.Background()
	host := readHost()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, seed, dur.Seconds(), traced)
	goldens, err := loadGoldens()
	if err != nil {
		return err
	}
	want, haveGolden := goldens.lookup(workload, seed)
	if !haveGolden {
		fmt.Printf("note: no golden recorded for seed %d; outputs are checked for determinism and invariants only\n", seed)
	}

	var setupS float64
	if !traced {
		if setupS, err = measureSetup(workload, seed); err != nil {
			return err
		}
	}
	st, err := newSetup(workload, seed)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep := &report{metrics: make(map[string]float64), extra: make(map[string]float64)}
	if workload == "service" {
		spec, _ := json.Marshal(st.sched[0][0].spec)
		fmt.Printf("spec (client 0, job 0) %s\n", spec)
		err = serviceMode(ctx, st, dur, tr, want, haveGolden, rep)
		st.close()
	} else {
		spec, _ := json.Marshal(st.spec)
		fmt.Printf("spec %s\n", spec)
		err = sweepMode(ctx, st.spec, dur, tr, want, haveGolden, rep)
	}
	if err != nil {
		return err
	}
	if traced && haveGolden {
		for _, msg := range want.checkCounts(rep.metrics) {
			rep.attempted++
			rep.fail(msg)
		}
	}
	rep.metrics["setup_s"] = setupS
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	rep.extra["fail_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	host.Source = sourceDigest()
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	for i, msg := range rep.failures {
		if i == 20 {
			fmt.Printf("FAIL: ... %d more\n", len(rep.failures)-i)
			break
		}
		fmt.Printf("FAIL: %s\n", msg)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, s := range tr.selfTimes() {
			fmt.Printf("self %-22s spans=%-5d total_ms=%.3f self_ms=%.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
		if err := tr.write(path, host); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	extraNames := make([]string, 0, len(rep.extra))
	for k := range rep.extra {
		extraNames = append(extraNames, k)
	}
	slices.Sort(extraNames)
	for _, k := range extraNames {
		fmt.Printf("metric %-28s %.6g %s\n", k, rep.extra[k], extraUnits[k])
	}

	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("metric %-28s %.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	if record {
		rep.golden.Counts = make(map[string]float64)
		for _, name := range guardedCounts {
			rep.golden.Counts[name] = rep.metrics[name]
		}
		if err := goldens.record(workload, seed, rep.golden); err != nil {
			return err
		}
		fmt.Printf("recorded goldens for %s seed %d\n", workload, seed)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sweepMode runs a sweep workload and fills rep.
func sweepMode(ctx context.Context, spec sweep.Spec, dur time.Duration, tr *tracer, want golden, haveGolden bool, rep *report) error {
	wantDigest := ""
	if haveGolden {
		wantDigest = want.Digest
	}
	sr := runSweepWorkload(ctx, spec, dur, tr, wantDigest)
	rep.attempted = len(sr.ops) + 1 // the warm-up sweep is checked too
	rep.failed = sr.failed
	rep.failures = sr.failures
	rep.golden.Digest = sr.digest
	var totals, tracedTotals, firstRows []float64
	var sumS, frags float64
	for _, op := range sr.ops {
		switch {
		case op.err != nil:
		case op.traced:
			tracedTotals = append(tracedTotals, op.total.Seconds())
		default:
			totals = append(totals, op.total.Seconds())
			firstRows = append(firstRows, op.firstRow.Seconds())
			sumS += op.total.Seconds()
			frags += float64(op.frags)
		}
	}
	if len(totals) == 0 || (tr != nil && len(tracedTotals) == 0) {
		return fmt.Errorf("too few sweeps succeeded in %v: %v", dur, sr.failures)
	}
	fmt.Printf("sweep samples: %d untraced %.4g s, %d traced %.4g s\n",
		len(totals), totals, len(tracedTotals), tracedTotals)
	rep.metrics["sweep_s"] = median(totals)
	rep.metrics["first_row_s"] = median(firstRows)
	rep.metrics["sim_mfrags_per_s"] = frags / sumS / 1e6
	rep.metrics["ops_per_s"] = float64(len(totals)) / sumS
	if tr == nil {
		return nil
	}

	doc, err := json.Marshal(sr.last)
	if err != nil {
		return err
	}
	in, err := newLayerInput(spec)
	if err != nil {
		return err
	}
	in.plan, in.result, in.docs = sr.plan, sr.last, [][]byte{doc}
	lm, err := layerPass(ctx, in, tr)
	if err != nil {
		return err
	}
	svc, err := servicePass(ctx, spec, doc, tr)
	if err != nil {
		return err
	}
	for k, v := range svc {
		lm[k] = v
	}
	lm["trace.overhead_ratio"] = median(tracedTotals) / median(totals)
	rep.metrics = lm
	return nil
}

// hostRecord identifies the machine and program a result came from.
type hostRecord struct {
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	Source     string            `json:"source_sha256"`
	Units      map[string]string `json:"units"`
}

func readHost() hostRecord {
	h := hostRecord{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: buildinfo.Read().Commit, Units: units()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// sourceDigest hashes every Go source and module file under the working
// directory, so a result names the program it measured even outside a git
// checkout. Hidden directories (build output, VCS metadata) are skipped.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
