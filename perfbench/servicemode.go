package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/resultcache"
	"repro/internal/service"
	"repro/internal/sweep"
)

// goldenJobs is how many of client 0's first cold specs make up the
// service workload's golden digest. Their documents are computed in every
// run, whether or not the loop got to submit them.
const goldenJobs = 3

// serviceMode runs the service workload on st's server and fills rep.
func serviceMode(ctx context.Context, st *benchSetup, dur time.Duration, tr *tracer, want golden, haveGolden bool, rep *report) error {
	run, err := runServiceLoop(ctx, st.env, st.sched, dur, tr)
	if err != nil {
		return err
	}

	// Expected documents for every cold spec the loop submitted.
	var goldenSpecs, specs []sweep.Spec
	for _, job := range st.sched[0] {
		if !job.hot && len(goldenSpecs) < goldenJobs {
			goldenSpecs = append(goldenSpecs, job.spec)
		}
	}
	seen := make(map[string]bool)
	for _, sp := range goldenSpecs {
		seen[specKey(sp)] = true
	}
	specs = append(specs, goldenSpecs...)
	for _, s := range run.samples {
		job := st.sched[s.client][s.index]
		if key := specKey(job.spec); !job.hot && !seen[key] {
			seen[key] = true
			specs = append(specs, job.spec)
		}
	}
	exp, err := expectedDocs(ctx, specs)
	if err != nil {
		return err
	}
	rep.attempted = len(run.samples) + 1 // the golden digest is one more check
	for _, err := range checkSamples(run, st.sched, exp) {
		rep.fail(err.Error())
	}
	h := sha256.New()
	for _, sp := range goldenSpecs {
		doc := exp[specKey(sp)].doc
		fmt.Fprintf(h, "%d\n", len(doc))
		h.Write(doc)
	}
	rep.golden.Digest = hex.EncodeToString(h.Sum(nil))
	if haveGolden && rep.golden.Digest != want.Digest {
		rep.fail(fmt.Sprintf("result digest %s, want %s", rep.golden.Digest, want.Digest))
	}

	// Timed samples: warm-up excluded, failures excluded.
	var cold, hot, coldTraced, firstRows []float64
	var frags float64
	var timed []jobSample
	for _, s := range run.samples {
		if s.index < serviceWarmup || s.err != nil {
			continue
		}
		timed = append(timed, s)
		lat := millis(s.latency)
		switch {
		case s.hot:
			hot = append(hot, lat)
		case s.traced:
			coldTraced = append(coldTraced, lat)
		default:
			cold = append(cold, lat)
			firstRows = append(firstRows, s.firstRow.Seconds())
			frags += float64(exp[specKey(st.sched[s.client][s.index].spec)].frags)
		}
	}
	if len(cold) == 0 || len(hot) == 0 || (tr != nil && len(coldTraced) == 0) {
		return fmt.Errorf("too few jobs completed in %v (%d cold, %d hot)", dur, len(cold), len(hot))
	}
	elapsed := run.elapsed.Seconds()
	rep.metrics["sweep_s"] = median(cold) / 1e3
	rep.metrics["first_row_s"] = median(firstRows)
	rep.metrics["sim_mfrags_per_s"] = frags / elapsed / 1e6
	rep.metrics["ops_per_s"] = float64(len(timed)) / elapsed
	rep.extra["cold_job_ms_p50"] = median(cold)
	rep.extra["cold_job_ms_p90"] = quantile(cold, 0.9)
	rep.extra["hot_job_ms_p50"] = median(hot)
	rep.extra["hot_job_ms_p90"] = quantile(hot, 0.9)
	rep.extra["jobs_per_s"] = float64(len(timed)) / elapsed
	fmt.Printf("service samples: %d cold untraced, %d cold traced, %d hot, %d jobs in %.3f s\n",
		len(cold), len(coldTraced), len(hot), len(run.samples), elapsed)
	if tr == nil {
		return nil
	}

	in, err := newLayerInput(goldenSpecs[0])
	if err != nil {
		return err
	}
	for _, sp := range goldenSpecs {
		ex := exp[specKey(sp)]
		in.docs = append(in.docs, ex.doc)
		in.plan.Points += ex.plan.Points
		in.plan.Baselines += ex.plan.Baselines
		in.plan.Rasterizations += ex.plan.Rasterizations
		in.plan.Saved += ex.plan.Saved
		in.plan.Checkpointed += ex.plan.Checkpointed
	}
	in.result = exp[specKey(goldenSpecs[0])].res
	lm, err := layerPass(ctx, in, tr)
	if err != nil {
		return err
	}
	for k, v := range serviceLayer(timed, run.views, st.env.cache) {
		lm[k] = v
	}
	lm["trace.overhead_ratio"] = median(coldTraced) / median(cold)
	rep.metrics = lm
	return nil
}

// serviceLayer derives the service and result-cache layer metrics from
// completed jobs and the server's view of them. Queue wait and overhead
// cover every job; run time covers cold jobs only.
func serviceLayer(samples []jobSample, views map[string]jobTimes, rc *resultcache.Cache) map[string]float64 {
	var waits, runs, overheads []float64
	rejected := 0
	for _, s := range samples {
		var se *statusError
		if errors.As(s.err, &se) && se.code == http.StatusTooManyRequests {
			rejected++
		}
		v, ok := views[s.id]
		if s.err != nil || !ok {
			continue
		}
		wait, run, ok := v.stages()
		if !ok {
			continue
		}
		waits = append(waits, millis(wait))
		if !s.hot {
			runs = append(runs, millis(run))
		}
		overheads = append(overheads, millis(s.latency-wait-run))
	}
	st := rc.Stats()
	return map[string]float64{
		"service.queue_wait_ms_p50": median(waits),
		"service.queue_wait_ms_p90": quantile(waits, 0.9),
		"service.run_ms_p50":        median(runs),
		"service.overhead_ms_p50":   median(overheads),
		"service.rejected":          float64(rejected),
		"resultcache.hit_ratio":     float64(st.Hits) / float64(max(st.Hits+st.Misses, 1)),
	}
}

// servicePassJobs is how many times the service pass of a sweep workload
// submits the workload's spec: once cold, then hot from the result cache.
const servicePassJobs = 5

// servicePass measures the service layer for a sweep workload: its spec
// submitted to an in-process texsimd whose single worker gets the sweep's
// whole budget. Every result must equal doc, the RunWith document.
func servicePass(ctx context.Context, spec sweep.Spec, doc []byte, tr *tracer) (map[string]float64, error) {
	env, err := startService(service.Config{Workers: 1, Parallelism: benchProcs})
	if err != nil {
		return nil, err
	}
	defer env.close()
	root := tr.begin("service-pass", 0, "service-pass")
	defer tr.end(root)
	var samples []jobSample
	for i := 0; i < servicePassJobs; i++ {
		s := env.runJob(ctx, spec, tr, "service-pass", root)
		s.hot = i > 0
		if s.err != nil {
			return nil, s.err
		}
		if !bytes.Equal(s.result, doc) {
			return nil, fmt.Errorf("service pass: job %s result differs from the sweep.RunWith document", s.id)
		}
		samples = append(samples, s)
	}
	views, err := env.jobViews(ctx)
	if err != nil {
		return nil, err
	}
	return serviceLayer(samples, views, env.cache), nil
}
