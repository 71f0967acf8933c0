package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/sweep"
)

// sweepOp is one timed sweep: RunWith plus the CSV encoding texsweep does.
type sweepOp struct {
	total    time.Duration // RunWith call to CSV written
	firstRow time.Duration // RunWith call to the first RowDone
	frags    uint64        // simulated fragments, baselines included
	digest   string        // sha256 of the CSV
	plan     sweep.PlanStats
	res      *sweep.Result
	traced   bool
	err      error // a failed run or a broken output invariant
}

// rowSink records the first RowDone and, when tracing, one span per row.
type rowSink struct {
	t0     time.Time
	tr     *tracer
	trace  string
	parent int

	mu       sync.Mutex
	firstRow time.Duration
	open     map[int]int // row index -> span ID
}

func (s *rowSink) RowStarted(index, total, procs, size int, hash string) {
	if s.tr == nil {
		return
	}
	id := s.tr.begin(s.trace, s.parent, "row")
	s.mu.Lock()
	s.open[index] = id
	s.mu.Unlock()
}

func (s *rowSink) RowDone(index, total int, row sweep.Row, hash string) {
	d := time.Since(s.t0)
	s.mu.Lock()
	if s.firstRow == 0 {
		s.firstRow = d
	}
	id := s.open[index]
	s.mu.Unlock()
	s.tr.end(id)
}

// runSweep runs and checks one sweep. tr may be nil (untraced).
func runSweep(ctx context.Context, spec sweep.Spec, tr *tracer, trace string) sweepOp {
	var op sweepOp
	t0 := time.Now()
	root := tr.begin(trace, 0, "sweep")
	sink := &rowSink{t0: t0, tr: tr, trace: trace, parent: root, open: make(map[int]int)}
	res, err := sweep.RunWith(ctx, spec, sweep.RunOpts{
		Parallelism: benchProcs, Progress: sink, Plan: &op.plan})
	if err != nil {
		tr.end(root)
		op.err = err
		return op
	}
	csvSpan := tr.begin(trace, root, "csv")
	var buf bytes.Buffer
	err = sweep.WriteCSV(&buf, res.Rows)
	tr.end(csvSpan)
	tr.end(root)
	op.total = time.Since(t0)
	op.firstRow = sink.firstRow
	op.res = res
	if err != nil {
		op.err = fmt.Errorf("encoding CSV: %w", err)
		return op
	}
	sum := sha256.Sum256(buf.Bytes())
	op.digest = hex.EncodeToString(sum[:])
	op.err = checkConservation(res)
	if len(res.Rows) > 0 {
		op.frags = res.Rows[0].Frags * uint64(op.plan.Points+op.plan.Baselines)
	}
	return op
}

// checkConservation enforces fragment conservation: every distribution of
// the same frame draws the same pixels, so every row carries the same frags.
func checkConservation(res *sweep.Result) error {
	if len(res.Rows) == 0 {
		return fmt.Errorf("sweep returned no rows")
	}
	for _, r := range res.Rows {
		if r.Frags != res.Rows[0].Frags || r.Frags == 0 {
			return fmt.Errorf("fragment conservation: %s p%d s%d draws %d frags, row 0 draws %d",
				r.Dist, r.Procs, r.Size, r.Frags, res.Rows[0].Frags)
		}
	}
	return nil
}

// sweepRun is the outcome of a sweep workload's timed loop.
type sweepRun struct {
	ops      []sweepOp // timed ops, warm-up excluded
	last     *sweep.Result
	plan     sweep.PlanStats
	digest   string
	failed   int
	failures []string
}

// runSweepWorkload runs one warm-up sweep and then sweeps back to back until
// dur has passed. Every sweep's CSV must equal want (the recorded golden
// digest for the seed) or, without a golden, the warm-up sweep's digest. In
// a traced run every other sweep records spans, so the traced and untraced
// medians give the tracing overhead.
func runSweepWorkload(ctx context.Context, spec sweep.Spec, dur time.Duration, tr *tracer, want string) sweepRun {
	var out sweepRun
	check := func(op sweepOp) bool {
		if op.err == nil && want != "" && op.digest != want {
			op.err = fmt.Errorf("CSV digest %s, want %s", op.digest, want)
		}
		if op.err != nil {
			out.failed++
			out.failures = append(out.failures, op.err.Error())
			return false
		}
		return true
	}
	warm := runSweep(ctx, spec, nil, "")
	if check(warm) && want == "" {
		want = warm.digest
	}
	out.digest, out.last, out.plan = warm.digest, warm.res, warm.plan
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		var optr *tracer
		if tr != nil && i%2 == 0 {
			optr = tr
		}
		op := runSweep(ctx, spec, optr, fmt.Sprintf("sweep-%d", i))
		op.traced = optr != nil
		if check(op) {
			out.last = op.res
		} else if op.err == nil {
			op.err = fmt.Errorf("wrong output")
		}
		out.ops = append(out.ops, op)
	}
	return out
}
