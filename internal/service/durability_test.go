package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

// bulkSweep is a request big enough (8 points > interactiveMaxPoints) to
// land on the bulk scheduling band. n varies the spec so submissions get
// distinct cache keys.
func bulkSweep(n int) *Request {
	return &Request{Type: "sweep", Sweep: &sweep.Spec{
		Scene: "truc640", Scale: 0.2, Procs: []int{1, 2, 4, 8},
		Sizes: []int{8, 16}, Cache: "perfect", Buffer: n + 1,
	}}
}

// postJobTenant submits with an X-Tenant header and returns the response.
func postJobTenant(t *testing.T, ts *httptest.Server, req *Request, tenant string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// The queued gauges are exact counters now, not len(queue) samples: with
// the worker pinned, N accepted jobs must show exactly N-1 queued (one
// running), and 0 after everything drains — whatever the submit
// concurrency. The old sampling could drift under concurrent
// submit+dequeue and never correct itself.
func TestQueuedGaugeExactUnderConcurrency(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 64,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})

	const n = 24
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := tinySweep()
			req.Sweep.Buffer = i + 1 // distinct cache keys
			v, code := postJob(t, ts, req)
			if code != http.StatusAccepted {
				t.Errorf("submit %d returned %d", i, code)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()

	// Exactly one job is running (the pinned worker's); the rest are queued.
	waitFor(t, func() bool {
		return metricValue(t, ts, "texsimd_jobs_queued") == n-1
	}, "queued gauge to reach n-1")
	if got := metricValue(t, ts, `texsimd_tenant_queued{tenant="default"}`); got != n-1 {
		t.Fatalf("tenant queued gauge = %v, want %d", got, n-1)
	}

	close(release)
	for _, id := range ids {
		if id != "" {
			waitDone(t, ts, id)
		}
	}
	if got := metricValue(t, ts, "texsimd_jobs_queued"); got != 0 {
		t.Fatalf("queued gauge = %v after drain, want exactly 0", got)
	}
	if got := metricValue(t, ts, `texsimd_tenant_queued{tenant="default"}`); got != 0 {
		t.Fatalf("tenant queued gauge = %v after drain, want exactly 0", got)
	}
	if got := metricValue(t, ts, `texsimd_tenant_running{tenant="default"}`); got != 0 {
		t.Fatalf("tenant running gauge = %v after drain, want exactly 0", got)
	}
}

// Tenant quota exhaustion answers 429 with the quota_exhausted code and a
// real Retry-After, charges the right rejection counter, and does not
// bleed into other tenants.
func TestTenantQuotaExhaustion(t *testing.T) {
	_, ts := newTestServer(t, Config{
		QueueDepth:  16,
		TenantRate:  0.01, // ~100s per token: no refill within the test
		TenantBurst: 1,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			return []byte(`{}`), nil
		},
	})

	resp := postJobTenant(t, ts, tinySweep(), "alice")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alice submit returned %d", resp.StatusCode)
	}

	req := tinySweep()
	req.Sweep.Buffer = 2
	resp = postJobTenant(t, ts, req, "alice")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice submit returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", ra)
	}
	body := decodeAPIError(t, resp.Body)
	if body.Code != "quota_exhausted" {
		t.Errorf("429 code = %q, want quota_exhausted", body.Code)
	}
	if body.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", body.RetryAfterSeconds)
	}

	// An untouched tenant still gets in.
	resp = postJobTenant(t, ts, tinySweep(), "bob")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submit returned %d, want 202", resp.StatusCode)
	}

	if got := metricValue(t, ts, `texsimd_tenant_rejected_total{tenant="alice",reason="quota"}`); got != 1 {
		t.Fatalf("alice quota rejections = %v, want 1", got)
	}
}

// The tenant name must not change the cache key: bob's identical request
// is served from alice's cached result.
func TestTenantExcludedFromCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 16})

	resp := postJobTenant(t, ts, tinySweep(), "alice")
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitDone(t, ts, v.ID)

	resp = postJobTenant(t, ts, tinySweep(), "bob")
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := waitDone(t, ts, v.ID)
	if !done.FromCache {
		t.Fatal("bob's identical request re-simulated; want cache hit across tenants")
	}
}

// TestMixedTenantFairness pins the scheduling contract under a bulk flood:
// with the single worker pinned and the queue stuffed with one tenant's
// bulk sweeps, later interactive submissions from other tenants must all
// dequeue before any bulk job. CI runs this under -race as the
// mixed-tenant hammer.
func TestMixedTenantFairness(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var started []string // tenant of each job as a worker picks it up

	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 64,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			if req.Tenant == "pin" {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return []byte(`{}`), nil
			}
			mu.Lock()
			started = append(started, tenantOrDefault(req.Tenant))
			mu.Unlock()
			return []byte(`{}`), nil
		},
	})

	// Pin the worker so everything below queues up behind it.
	resp := postJobTenant(t, ts, tinySweep(), "pin")
	var pin jobView
	if err := json.NewDecoder(resp.Body).Decode(&pin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, ts, pin.ID, StatusRunning)

	// A concurrent bulk flood...
	const bulk = 16
	var wg sync.WaitGroup
	ids := make(chan string, bulk+4)
	for i := 0; i < bulk; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJobTenant(t, ts, bulkSweep(i), "batch")
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("bulk submit %d returned %d", i, resp.StatusCode)
				return
			}
			var v jobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
				return
			}
			if v.Class != "bulk" {
				t.Errorf("bulk submission classified %q", v.Class)
			}
			ids <- v.ID
		}(i)
	}
	wg.Wait()

	// ...then interactive jobs arrive LAST, behind the whole bulk backlog.
	for i := 0; i < 4; i++ {
		req := tinySweep()
		req.Sweep.Buffer = 100 + i
		resp := postJobTenant(t, ts, req, fmt.Sprintf("user%d", i))
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("interactive submit %d returned %d", i, resp.StatusCode)
		}
		if v.Class != "interactive" {
			t.Fatalf("interactive submission classified %q", v.Class)
		}
		ids <- v.ID
	}
	close(ids)

	close(release)
	for id := range ids {
		waitDone(t, ts, id)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(started) != bulk+4 {
		t.Fatalf("%d jobs executed, want %d", len(started), bulk+4)
	}
	for i, tenant := range started[:4] {
		if tenant == "batch" {
			t.Fatalf("bulk job executed at position %d before the interactive backlog: %v",
				i, started[:5])
		}
	}
}

// A server with CheckpointDir journals accepted jobs; a second server on
// the same directory with Resume picks up the unfinished ones under fresh
// IDs and completes them.
func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	srvA, err := New(context.Background(), Config{
		Workers:       1,
		QueueDepth:    8,
		CheckpointDir: dir,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		srvA.Close()
	}()

	// One job runs (still journaled — not terminal), one stays queued.
	for i := 0; i < 2; i++ {
		req := tinySweep()
		req.Sweep.Buffer = i + 1
		req.Tenant = "alice"
		if _, err := srvA.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal holds %d entries, want 2", len(entries))
	}

	srvB, err := New(context.Background(), Config{
		Workers:       1,
		QueueDepth:    8,
		CheckpointDir: dir,
		Resume:        true,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			if req.Tenant != "alice" {
				return nil, fmt.Errorf("recovered job lost its tenant: %q", req.Tenant)
			}
			return []byte(`{}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	waitFor(t, func() bool {
		jobs := srvB.list()
		if len(jobs) != 2 {
			return false
		}
		for i := range jobs {
			if jobs[i].status != StatusDone {
				return false
			}
		}
		return true
	}, "recovered jobs to finish on the second server")

	// At-most-once: the entries were consumed at recovery.
	entries, err = os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("journal still holds %d entries after recovery", len(entries))
	}
}

// TestJournalAtMostOnceInstantJobs pins the journal's ordering against
// workers that finish a job the moment it is poppable: the entry is written
// before the job can be popped and removed before its terminal status is
// published, so a finished job is never journaled — not even briefly, and
// not left behind to rerun on the next resume.
func TestJournalAtMostOnceInstantJobs(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(context.Background(), Config{
		Workers:       2,
		QueueDepth:    16,
		CheckpointDir: dir,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			return []byte(`{}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const jobs = 8
	for i := 0; i < jobs; i++ {
		req := tinySweep()
		req.Sweep.Buffer = i + 1
		if _, err := srv.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	journaled := func(id string) bool {
		_, err := os.Stat(filepath.Join(dir, "jobs", id+".json"))
		return err == nil
	}
	waitFor(t, func() bool {
		done := 0
		for _, j := range srv.list() {
			if j.status != StatusDone {
				continue
			}
			if journaled(j.id) {
				t.Fatalf("%s is done but still journaled", j.id)
			}
			done++
		}
		return done == jobs
	}, "instant jobs to finish")
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("journal holds %d entries after every job finished", len(entries))
	}
}

// A server without Resume must leave the journal alone (rows checkpoints
// still work), so an operator can opt out of replay without losing the
// entries.
func TestJournalNotReplayedWithoutResume(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	srvA, err := New(context.Background(), Config{
		Workers:       1,
		CheckpointDir: dir,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		srvA.Close()
	}()
	if _, err := srvA.Submit(context.Background(), tinySweep()); err != nil {
		t.Fatal(err)
	}

	srvB, err := New(context.Background(), Config{
		Workers:       1,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	// Give any (buggy) replay a moment to surface, then check nothing ran.
	time.Sleep(50 * time.Millisecond)
	if jobs := srvB.list(); len(jobs) != 0 {
		t.Fatalf("server without Resume recovered %d jobs", len(jobs))
	}
}
