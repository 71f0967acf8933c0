package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/resultcache"
	"repro/internal/service"
	"repro/internal/sweep"
)

// serviceEnv is an in-process texsimd behind a loopback listener, with a
// result cache the benchmark owns.
type serviceEnv struct {
	srv    *service.Server
	cache  *resultcache.Cache
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startService boots the server and returns once the listener answers
// /healthz.
func startService(cfg service.Config) (*serviceEnv, error) {
	rc, err := resultcache.New(resultcache.Config{MaxEntries: 1 << 14})
	if err != nil {
		return nil, err
	}
	cfg.Cache = rc
	srv, err := service.New(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serviceEnv{
		srv:    srv,
		cache:  rc,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	resp, err := e.client.Get(e.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the listener, the server's workers and idle client
// connections, and waits for the serve goroutine.
func (e *serviceEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout here leaves only the process exit to close connections
	<-e.served
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// benchService is the service workload's server configuration: 2 workers,
// node parallelism 1.
func benchService() service.Config {
	return service.Config{Workers: 2, NodeParallelism: 1}
}

// jobSample is one completed submission as the client saw it.
type jobSample struct {
	client, index int
	hot, traced   bool
	id            string
	latency       time.Duration // POST sent to result bytes read
	firstRow      time.Duration // POST sent to first row event read (0 if none)
	result        []byte
	err           error
}

// runJob submits one sweep, follows its event stream to the terminal event
// and fetches the result. Its spans hang under parent (0 = a root).
func (e *serviceEnv) runJob(ctx context.Context, spec sweep.Spec, tr *tracer, trace string, parent int) jobSample {
	var s jobSample
	t0 := time.Now()
	root := tr.begin(trace, parent, "job")
	defer tr.end(root)

	sp := tr.begin(trace, root, "submit")
	body, err := json.Marshal(service.Request{Type: "sweep", Sweep: &spec})
	if err != nil {
		s.err = err
		return s
	}
	var view struct {
		ID string `json:"id"`
	}
	err = e.do(ctx, http.MethodPost, "/api/v1/jobs", bytes.NewReader(body), http.StatusAccepted, &view)
	tr.end(sp)
	if err != nil {
		s.err = err
		return s
	}
	s.id = view.ID

	sp = tr.begin(trace, root, "events")
	s.firstRow, err = e.follow(ctx, s.id, t0)
	tr.end(sp)
	if err != nil {
		s.err = err
		return s
	}

	sp = tr.begin(trace, root, "result")
	var raw json.RawMessage
	err = e.do(ctx, http.MethodGet, "/api/v1/jobs/"+s.id+"/result", nil, http.StatusOK, &raw)
	tr.end(sp)
	s.latency = time.Since(t0)
	s.result, s.err = raw, err
	return s
}

// do performs one API call and decodes the body into out; any status other
// than want is an error (a 429 or 5xx is a failed operation).
func (e *serviceEnv) do(ctx context.Context, method, path string, body io.Reader, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, body)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))}
	}
	if raw, ok := out.(*json.RawMessage); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// statusError is an API response with an unexpected status code.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// follow reads the job's event stream until its terminal event and returns
// when, counted from t0, the first row event arrived. A terminal event
// other than "done" is an error.
func (e *serviceEnv) follow(ctx context.Context, id string, t0 time.Time) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	var firstRow time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		typ, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		if typ == "row" {
			if firstRow == 0 {
				firstRow = time.Since(t0)
			}
			continue
		}
		// Drain the stream so the connection is reused.
		_, _ = io.Copy(io.Discard, resp.Body) // the outcome is already known
		if typ != "done" {
			return firstRow, fmt.Errorf("job %s ended %q", id, typ)
		}
		return firstRow, nil
	}
	if err := sc.Err(); err != nil {
		return firstRow, fmt.Errorf("events %s: %w", id, err)
	}
	return firstRow, fmt.Errorf("events %s: stream ended without a terminal event", id)
}

// jobTimes is the server's view of one job. The timestamps are RFC 3339
// strings, empty until the job reaches that stage.
type jobTimes struct {
	ID          string `json:"id"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
	FromCache   bool   `json:"from_cache"`
}

// stages returns the job's queue wait (submitted to started) and run time
// (started to finished); ok is false unless all three timestamps parse.
func (j jobTimes) stages() (wait, run time.Duration, ok bool) {
	sub, err1 := time.Parse(time.RFC3339Nano, j.SubmittedAt)
	st, err2 := time.Parse(time.RFC3339Nano, j.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, j.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, false
	}
	return st.Sub(sub), fin.Sub(st), true
}

// jobViews lists every job the server knows, keyed by ID.
func (e *serviceEnv) jobViews(ctx context.Context) (map[string]jobTimes, error) {
	var list struct {
		Jobs []jobTimes `json:"jobs"`
	}
	if err := e.do(ctx, http.MethodGet, "/api/v1/jobs", nil, http.StatusOK, &list); err != nil {
		return nil, err
	}
	out := make(map[string]jobTimes, len(list.Jobs))
	for _, j := range list.Jobs {
		out[j.ID] = j
	}
	return out, nil
}

// serviceWarmup is how many leading submissions of each client's schedule
// run before timing starts. They are checked like every other job.
const serviceWarmup = 3

// serviceRun is the outcome of the service workload's closed loop.
type serviceRun struct {
	samples []jobSample // every submission, warm-up included
	elapsed time.Duration
	views   map[string]jobTimes
}

// runServiceLoop drives the closed loop: each client submits its next job
// only after reading the previous job's result, until dur has passed after
// the warm-up. In a traced run every other job records spans.
func runServiceLoop(ctx context.Context, e *serviceEnv, sched [][]serviceJob, dur time.Duration, tr *tracer) (serviceRun, error) {
	var out serviceRun
	per := make([][]jobSample, len(sched))
	var wg sync.WaitGroup
	var warm sync.WaitGroup
	warm.Add(len(sched))
	startCh := make(chan time.Time)
	for c := range sched {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var start time.Time
			for k, job := range sched[c] {
				if k == serviceWarmup {
					warm.Done()
					start = <-startCh
				}
				if k > serviceWarmup && time.Since(start) >= dur {
					return
				}
				var jtr *tracer
				if tr != nil && k%2 == 0 {
					jtr = tr
				}
				s := e.runJob(ctx, job.spec, jtr, fmt.Sprintf("c%d-job%d", c, k), 0)
				s.client, s.index, s.hot, s.traced = c, k, job.hot, jtr != nil
				per[c] = append(per[c], s)
			}
		}(c)
	}
	warm.Wait()
	t0 := time.Now()
	for range sched {
		startCh <- t0
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	for _, p := range per {
		out.samples = append(out.samples, p...)
	}
	views, err := e.jobViews(ctx)
	if err != nil {
		return out, err
	}
	out.views = views
	return out, nil
}

// expected is what the service must return for one cold spec: the
// sweep.RunWith document, with the plan and simulated fragments behind it.
type expected struct {
	doc   []byte
	res   *sweep.Result
	plan  sweep.PlanStats
	frags uint64 // baselines included
}

// expectedDocs runs sweep.RunWith for every spec on benchProcs workers and
// returns the results keyed by spec key.
func expectedDocs(ctx context.Context, specs []sweep.Spec) (map[string]expected, error) {
	out := make(map[string]expected, len(specs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan sweep.Spec)
	for w := 0; w < benchProcs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range next {
				ex, err := sweepDoc(ctx, sp)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[specKey(sp)] = ex
				mu.Unlock()
			}
		}()
	}
	for _, sp := range specs {
		next <- sp
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// sweepDoc computes the result document texsimd serves for a sweep spec:
// the RunWith result as compact JSON.
func sweepDoc(ctx context.Context, sp sweep.Spec) (expected, error) {
	var ex expected
	res, err := sweep.RunWith(ctx, sp, sweep.RunOpts{Parallelism: 1, Plan: &ex.plan})
	if err != nil {
		return ex, err
	}
	if err := checkConservation(res); err != nil {
		return ex, err
	}
	ex.res = res
	ex.frags = res.Rows[0].Frags * uint64(ex.plan.Points+ex.plan.Baselines)
	ex.doc, err = json.Marshal(res)
	return ex, err
}

func specKey(sp sweep.Spec) string {
	key, err := resultcache.Key(sp.WithDefaults())
	if err != nil {
		panic(err) // a Spec is a plain struct: always encodable
	}
	return key
}

// checkSamples applies the service output check: every result must be
// byte-identical to the RunWith document of its spec, and every hot result
// to the same client's earlier cold result. It returns one error per failed
// sample, in sample order.
func checkSamples(run serviceRun, sched [][]serviceJob, want map[string]expected) []error {
	cold := make(map[[2]int][]byte)
	for _, s := range run.samples {
		if !s.hot && s.err == nil {
			cold[[2]int{s.client, s.index}] = s.result
		}
	}
	var errs []error
	for _, s := range run.samples {
		err := s.err
		job := sched[s.client][s.index]
		if err == nil && !bytes.Equal(s.result, want[specKey(job.spec)].doc) {
			err = fmt.Errorf("%s: result differs from the sweep.RunWith document", s.id)
		}
		if err == nil && s.hot && !bytes.Equal(s.result, cold[[2]int{s.client, job.coldIndex}]) {
			err = fmt.Errorf("%s: hot result differs from its cold result", s.id)
		}
		if err == nil {
			if v, ok := run.views[s.id]; !ok {
				err = fmt.Errorf("%s: missing from the job list", s.id)
			} else if v.FromCache != s.hot {
				err = fmt.Errorf("%s: from_cache=%v for a hot=%v job", s.id, v.FromCache, s.hot)
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
