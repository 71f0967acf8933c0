package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

// tinySweep is a fast real simulation: one small scene, two configurations.
func tinySweep() *Request {
	return &Request{Type: "sweep", Sweep: &sweep.Spec{
		Scene: "truc640", Scale: 0.2, Procs: []int{1, 4}, Sizes: []int{16},
		Cache: "perfect",
	}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, req *Request) (jobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitDone polls the status endpoint until the job reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		if code := getJSON(t, ts.URL+"/api/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("status %s returned %d", id, code)
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobView{}
}

// metricValue scrapes /metrics and returns the value of the given series.
func metricValue(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " (.*)$")
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("series %q not in /metrics:\n%s", series, body)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJobLifecycleEndToEnd is the acceptance flow: submit → poll → result →
// resubmit hits the cache, observed through the /metrics counters.
func TestJobLifecycleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	v, code := postJob(t, ts, tinySweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if v.ID == "" || v.Type != "sweep" {
		t.Fatalf("bad submit view: %+v", v)
	}

	final := waitDone(t, ts, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", final.Status, final.Error)
	}
	if final.FromCache {
		t.Fatal("first run claims a cache hit")
	}

	// Result is a full sweep.Result document.
	resp, err := http.Get(ts.URL + final.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	var res sweep.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Rows) != 2 || res.Rows[0].Scene != "truc640" {
		t.Fatalf("unexpected result rows: %+v", res.Rows)
	}

	if hits := metricValue(t, ts, "texsimd_result_cache_hits_total"); hits != 0 {
		t.Fatalf("cache hits = %v before resubmission", hits)
	}

	// Identical resubmission: a new job, served from the result cache.
	v2, code := postJob(t, ts, tinySweep())
	if code != http.StatusAccepted {
		t.Fatalf("resubmit returned %d", code)
	}
	if v2.ID == v.ID {
		t.Fatal("resubmission reused the job ID")
	}
	final2 := waitDone(t, ts, v2.ID)
	if final2.Status != StatusDone || !final2.FromCache {
		t.Fatalf("resubmission not served from cache: %+v", final2)
	}
	if hits := metricValue(t, ts, "texsimd_result_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %v after resubmission, want 1", hits)
	}

	// Byte-identical payloads.
	var res2 sweep.Result
	if code := getJSON(t, ts.URL+final2.ResultURL, &res2); code != http.StatusOK {
		t.Fatalf("cached result returned %d", code)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(res2.Rows) {
		t.Fatal("cached rows differ from computed rows")
	}

	// Throughput metrics moved.
	if cyc := metricValue(t, ts, "texsimd_simulated_cycles_total"); cyc <= 0 {
		t.Fatalf("simulated cycles total = %v", cyc)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := []*Request{
		{Type: "sweep"},      // missing spec
		{Type: "experiment"}, // missing spec
		{Type: "mystery"},    // unknown type
		{Type: "sweep", Sweep: &sweep.Spec{Scene: "nope"}},           // unknown scene
		{Type: "experiment", Experiment: &ExperimentSpec{ID: "zzz"}}, // unknown experiment
		{Type: "sweep", Sweep: &sweep.Spec{Scene: "truc640"},
			Experiment: &ExperimentSpec{ID: "table1"}}, // both specs
		{Type: "sweep", Sweep: &sweep.Spec{Scene: "truc640", Procs: []int{1_000_000_000}}}, // too many processors
		overflowSweep(), // 2^65 points
		{Type: "sweep", Sweep: &sweep.Spec{Scene: "truc640", Scale: 100}}, // scale past the scene's
	}
	for i, req := range bad {
		if _, code := postJob(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("bad request %d returned %d, want 400", i, code)
		}
	}
}

// TestQueueFullReturns429 uses a run override that blocks, so one job
// occupies the worker and the rest fill the queue deterministically.
func TestQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer func() { once.Do(func() { close(release) }) }()
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})

	// Worker grabs the first job; the next two fill the queue. Distinct
	// specs keep the cache out of the picture.
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		req := tinySweep()
		req.Sweep.Procs = []int{1, 2 + i}
		v, code := postJob(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("job %d returned %d", i, code)
		}
		ids = append(ids, v.ID)
		if i == 0 {
			// Give the worker time to dequeue so the queue is empty again.
			waitStatus(t, ts, v.ID, StatusRunning)
		}
	}

	req := tinySweep()
	req.Sweep.Procs = []int{64}
	_, code := postJob(t, ts, req)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit returned %d, want 429", code)
	}
	if rej := metricValue(t, ts, "texsimd_jobs_rejected_total"); rej != 1 {
		t.Fatalf("rejected counter = %v, want 1", rej)
	}

	// Backpressure clears once the pool drains.
	once.Do(func() { close(release) })
	for _, id := range ids {
		waitDone(t, ts, id)
	}
	if _, code := postJob(t, ts, req); code != http.StatusAccepted {
		t.Fatalf("post-drain submit returned %d, want 202", code)
	}
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		getJSON(t, ts.URL+"/api/v1/jobs/"+id, &v)
		if v.Status == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestConcurrentHammer fires submissions from 32 goroutines against a small
// queue: every response must be either 202 or a clean 429, and every
// accepted job must reach a terminal state.
func TestConcurrentHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    4,
		QueueDepth: 8,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			return []byte(`{"rows":[]}`), nil
		},
	})

	const goroutines = 32
	const perG = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := tinySweep()
				req.Sweep.Procs = []int{1 + g, 1 + i} // vary the cache key
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				var v jobView
				switch resp.StatusCode {
				case http.StatusAccepted:
					json.NewDecoder(resp.Body).Decode(&v)
					mu.Lock()
					accepted = append(accepted, v.ID)
					mu.Unlock()
				case http.StatusTooManyRequests:
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()

	for _, id := range accepted {
		if v := waitDone(t, ts, id); v.Status != StatusDone {
			t.Errorf("job %s finished %s (%s)", id, v.Status, v.Error)
		}
	}
	total := metricValue(t, ts, `texsimd_jobs_submitted_total{type="sweep"}`)
	if int(total) != len(accepted) {
		t.Errorf("submitted counter %v != accepted %d", total, len(accepted))
	}
	if len(accepted)+rejected != goroutines*perG {
		t.Errorf("accepted %d + rejected %d != %d", len(accepted), rejected, goroutines*perG)
	}
}

// TestDrainCompletesRunningJobs is the graceful-shutdown acceptance: after
// Drain begins, running and queued jobs still finish, and new submissions
// are refused with 503.
func TestDrainCompletesRunningJobs(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 4,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			started <- struct{}{}
			select {
			case <-release:
				return []byte(`{"drained":true}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})

	running, _ := postJob(t, ts, tinySweep())
	<-started // the worker is now inside the job

	queued := tinySweep()
	queued.Sweep.Procs = []int{1, 2}
	queuedView, code := postJob(t, ts, queued)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit returned %d", code)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()

	// Draining: new submissions refused, in-flight work keeps going.
	waitFor(t, func() bool {
		_, code := postJob(t, ts, tinySweep())
		return code == http.StatusServiceUnavailable
	}, "503 while draining")

	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{running.ID, queuedView.ID} {
		v, _ := srv.snapshot(id)
		if v.status != StatusDone {
			t.Errorf("after drain, job %s is %s (%s)", id, v.status, v.errMsg)
		}
	}
}

// TestDrainTimeoutCancelsJobs: a drain whose context expires cancels the
// running job instead of hanging forever.
func TestDrainTimeoutCancelsJobs(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			started <- struct{}{}
			<-ctx.Done() // never finishes voluntarily
			return nil, ctx.Err()
		},
	})
	v, _ := postJob(t, ts, tinySweep())
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain reported success despite the stuck job")
	}
	snap, _ := srv.snapshot(v.ID)
	if snap.status != StatusCanceled {
		t.Fatalf("stuck job is %s, want canceled", snap.status)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	v, _ := postJob(t, ts, tinySweep())
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	if final := waitDone(t, ts, v.ID); final.Status != StatusCanceled {
		t.Fatalf("job finished %s, want canceled", final.Status)
	}
}

func TestWorkerPanicIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			if req.Sweep.Procs[0] == 13 {
				panic("unlucky")
			}
			return []byte(`{}`), nil
		},
	})
	bad := tinySweep()
	bad.Sweep.Procs = []int{13}
	v, _ := postJob(t, ts, bad)
	if final := waitDone(t, ts, v.ID); final.Status != StatusFailed {
		t.Fatalf("panicking job finished %s, want failed", final.Status)
	}
	// The worker survived: the next job still runs.
	good := tinySweep()
	v2, _ := postJob(t, ts, good)
	if final := waitDone(t, ts, v2.ID); final.Status != StatusDone {
		t.Fatalf("follow-up job finished %s", final.Status)
	}
	if p := metricValue(t, ts, "texsimd_worker_panics_total"); p != 1 {
		t.Fatalf("panic counter = %v, want 1", p)
	}
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		JobTimeout: 30 * time.Millisecond,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	v, _ := postJob(t, ts, tinySweep())
	if final := waitDone(t, ts, v.ID); final.Status != StatusCanceled {
		t.Fatalf("timed-out job finished %s, want canceled", final.Status)
	}
}

func TestExperimentJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	_, ts := newTestServer(t, Config{OutDir: t.TempDir()})
	req := &Request{Type: "experiment", Experiment: &ExperimentSpec{ID: "table1", Scale: 0.2}}
	v, code := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	final := waitDone(t, ts, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("experiment job %s: %s", final.Status, final.Error)
	}
	var rep struct {
		ID     string `json:"id"`
		Tables []any  `json:"tables"`
	}
	if code := getJSON(t, ts.URL+final.ResultURL, &rep); code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if rep.ID != "table1" || len(rep.Tables) == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// postJobRaw submits a job and returns the full HTTP response for header
// and body inspection; the caller owns closing the body.
func postJobRaw(t *testing.T, ts *httptest.Server, req *Request) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBackpressureResponseShape pins the contract of a 429: well-behaved
// clients need a Retry-After header to pace retries and a JSON error body
// to report — a bare status line is not enough.
func TestBackpressureResponseShape(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})

	// One job occupies the worker, one fills the queue.
	for i := 0; i < 2; i++ {
		req := tinySweep()
		req.Sweep.Procs = []int{1, 2 + i}
		v, code := postJob(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("job %d returned %d", i, code)
		}
		if i == 0 {
			waitStatus(t, ts, v.ID, StatusRunning)
		}
	}

	req := tinySweep()
	req.Sweep.Procs = []int{64}
	resp := postJobRaw(t, ts, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit returned %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	body := decodeAPIError(t, resp.Body)
	if body.Code != "queue_full" {
		t.Errorf("429 code = %q, want queue_full", body.Code)
	}
	// The message reports occupancy AND capacity — it used to print the
	// capacity as the queued count.
	if want := "job queue full (1 queued, capacity 1)"; body.Message != want {
		t.Errorf("429 message = %q, want %q", body.Message, want)
	}
	if body.RetryAfterSeconds != 1 {
		t.Errorf("429 retry_after_seconds = %d, want 1", body.RetryAfterSeconds)
	}
}

// decodeAPIError decodes the uniform non-2xx envelope
// {"error": {"code", "message", "retry_after_seconds?"}} and fails the test
// on any other body shape.
func decodeAPIError(t *testing.T, r io.Reader) APIError {
	t.Helper()
	var body struct {
		Error *APIError `json:"error"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Error == nil {
		t.Fatal("error body lacks the envelope object")
	}
	return *body.Error
}

// TestDrainingResponseShape: a 503 while draining carries the same
// retry metadata as a 429 — the client's recovery is identical.
func TestDrainingResponseShape(t *testing.T) {
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 4,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})
	if _, code := postJob(t, ts, tinySweep()); code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()

	var resp *http.Response
	waitFor(t, func() bool {
		if resp != nil {
			resp.Body.Close()
		}
		resp = postJobRaw(t, ts, tinySweep())
		return resp.StatusCode == http.StatusServiceUnavailable
	}, "503 while draining")
	defer resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	body := decodeAPIError(t, resp.Body)
	if body.Code != "draining" {
		t.Errorf("503 code = %q, want draining", body.Code)
	}
	if body.Message == "" {
		t.Error("503 body has no error message")
	}
	if body.RetryAfterSeconds != 1 {
		t.Errorf("503 retry_after_seconds = %d, want 1", body.RetryAfterSeconds)
	}
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestErrorEnvelopeShapes pins the envelope on the remaining non-2xx
// routes: 404 (unknown job), 400 (malformed submit), 409 (result not
// ready) and 410 (result of a canceled job).
func TestErrorEnvelopeShapes(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 4,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []byte(`{}`), nil
		},
	})

	check := func(resp *http.Response, status int, code string, retry int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("status = %d, want %d", resp.StatusCode, status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q, want application/json", ct)
		}
		body := decodeAPIError(t, resp.Body)
		if body.Code != code {
			t.Errorf("code = %q, want %q", body.Code, code)
		}
		if body.Message == "" {
			t.Error("empty message")
		}
		if body.RetryAfterSeconds != retry {
			t.Errorf("retry_after_seconds = %d, want %d", body.RetryAfterSeconds, retry)
		}
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "not_found", 0)

	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"type": 42}`))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "bad_request", 0)

	// A running job's result is not ready: 409 not_ready with a retry hint.
	v, code := postJob(t, ts, tinySweep())
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitStatus(t, ts, v.ID, StatusRunning)
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusConflict, "not_ready", 1)
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("409 Retry-After = %q, want \"1\"", got)
	}

	// Cancel it: the result is gone for good.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, ts, v.ID, StatusCanceled)
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusGone, "job_gone", 0)
}
