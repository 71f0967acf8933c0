package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/sweep"
)

// clusterNode is one in-process cluster member: a full Server behind a
// real HTTP listener, with its own cache, registry and peer table.
type clusterNode struct {
	srv *Server
	ts  *httptest.Server
	cl  *cluster.Cluster
}

// newClusterNodes boots n peer-aware servers and joins them into one
// cluster (every node lists every other). mod customises node i's config
// before the server is built; the Cluster, Metrics and defaults are
// already filled in. Nodes are cleaned up newest-first.
func newClusterNodes(t *testing.T, n int, mod func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	for i := 0; i < n; i++ {
		reg := metrics.NewRegistry()
		cl := cluster.New(cluster.Config{
			Metrics:       reg,
			ProbeTimeout:  time.Second,
			FailThreshold: 2,
		})
		cache, err := resultcache.New(resultcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Workers:      2,
			Cache:        cache,
			Metrics:      reg,
			Cluster:      cl,
			PollInterval: 20 * time.Millisecond,
		}
		if mod != nil {
			mod(i, &cfg)
		}
		srv, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &clusterNode{srv: srv, ts: ts, cl: cl}
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
	}
	urls := make([]string, n)
	for i, nd := range nodes {
		urls[i] = nd.ts.URL
	}
	for i, nd := range nodes {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nd.cl.SetPeers(urls[i], peers)
	}
	return nodes
}

// specOwnedBy searches sweep specs (varying the scale) until one's cache
// key is rendezvous-owned by nodes[want], as seen from the full member
// set. The spec is returned un-normalized, ready to submit.
func specOwnedBy(t *testing.T, nodes []*clusterNode, want int, seen map[string]bool) *Request {
	t.Helper()
	members := make([]string, len(nodes))
	for i, nd := range nodes {
		members[i] = nd.ts.URL
	}
	// Scales stay in [0.10, 0.40]: small enough to simulate fast, large
	// enough that scene generation stays tractable.
	for _, size := range []int{8, 16, 32, 64} {
		for k := 10; k <= 40; k++ {
			scale := float64(k) / 100
			probe := &Request{Type: "sweep", Sweep: &sweep.Spec{
				Scene: "truc640", Scale: scale, Procs: []int{1}, Sizes: []int{size},
				Cache: "perfect",
			}}
			if err := probe.normalize(); err != nil {
				t.Fatal(err)
			}
			key, err := resultcache.Key(probe)
			if err != nil {
				t.Fatal(err)
			}
			if seen[key] || cluster.OwnerOf(key, members) != members[want] {
				continue
			}
			seen[key] = true
			return &Request{Type: "sweep", Sweep: &sweep.Spec{
				Scene: "truc640", Scale: scale, Procs: []int{1}, Sizes: []int{size},
				Cache: "perfect",
			}}
		}
	}
	t.Fatalf("no unused spec owned by node %d", want)
	return nil
}

// keyOf computes the cache key the service would use for req.
func keyOf(t *testing.T, req *Request) string {
	t.Helper()
	c := &Request{Type: req.Type}
	if req.Sweep != nil {
		sp := *req.Sweep
		c.Sweep = &sp
	}
	if req.Experiment != nil {
		e := *req.Experiment
		c.Experiment = &e
	}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := resultcache.Key(c)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// echoPayload is the runOverride payload: valid JSON, unique per key.
func echoPayload(t *testing.T, req *Request) []byte {
	key, err := resultcache.Key(req) // req is normalized inside the server
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"key":%q}`, key))
}

// postJobWith submits req to ts with extra headers.
func postJobWith(t *testing.T, ts *httptest.Server, req *Request, hdr map[string]string) (jobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
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

func getResultBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s returned %d", id, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterRoutesToOwner: a submission whose key a peer owns is
// forwarded there, executed there, and the result lands back on the
// submitting node — with the trace surviving the hop.
func TestClusterRoutesToOwner(t *testing.T) {
	var ranOn [2]atomic.Int64
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			ranOn[i].Add(1)
			return echoPayload(t, req), nil
		}
	})
	spec := specOwnedBy(t, nodes, 1, map[string]bool{})

	// A fixed traceparent lets us find the job's spans on the peer.
	var tid [16]byte
	rand.Read(tid[:])
	traceID := hex.EncodeToString(tid[:])
	tp := fmt.Sprintf("00-%s-00f067aa0ba902b7-01", traceID)

	v, code := postJobWith(t, nodes[0].ts, spec, map[string]string{"traceparent": tp})
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	done := waitDone(t, nodes[0].ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s: %s", done.Status, done.Error)
	}
	if done.Peer != nodes[1].ts.URL {
		t.Fatalf("job peer = %q, want %q", done.Peer, nodes[1].ts.URL)
	}
	if ranOn[0].Load() != 0 || ranOn[1].Load() != 1 {
		t.Fatalf("executions = [%d %d], want [0 1]", ranOn[0].Load(), ranOn[1].Load())
	}
	if got, want := string(getResultBytes(t, nodes[0].ts, v.ID)),
		fmt.Sprintf(`{"key":%q}`, keyOf(t, spec)); got != want {
		t.Fatalf("result = %s, want %s", got, want)
	}
	if st := nodes[0].cl.Stats(); st.ForwardsRoute != 1 {
		t.Fatalf("forwards_route = %d, want 1", st.ForwardsRoute)
	}
	// The peer's spans joined the submitter's trace across the hop.
	if spans := nodes[1].srv.Tracer().Snapshot(0, traceID); len(spans) == 0 {
		t.Fatalf("no spans with trace %s on the executing peer", traceID)
	}
}

// TestClusterProxyCacheHit: a local miss on a key a peer owns is served
// from that peer's cache without simulating — and is cached locally so
// the next lookup stays local.
func TestClusterProxyCacheHit(t *testing.T) {
	var ranOn [2]atomic.Int64
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			ranOn[i].Add(1)
			return echoPayload(t, req), nil
		}
	})
	spec := specOwnedBy(t, nodes, 1, map[string]bool{})
	routed := map[string]string{cluster.RoutedHeader: "1"}

	// Seed the owner's cache: a routed submission executes locally there.
	v1, code := postJobWith(t, nodes[1].ts, spec, routed)
	if code != http.StatusAccepted {
		t.Fatalf("seed submit returned %d", code)
	}
	if d := waitDone(t, nodes[1].ts, v1.ID); d.Status != StatusDone {
		t.Fatalf("seed job ended %s: %s", d.Status, d.Error)
	}

	// A routed submission on the non-owner cannot be forwarded; its local
	// miss must federate to the owner and come back a proxied hit.
	v0, code := postJobWith(t, nodes[0].ts, spec, routed)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	d := waitDone(t, nodes[0].ts, v0.ID)
	if d.Status != StatusDone || !d.FromCache {
		t.Fatalf("job = %s fromCache=%v, want done from cache", d.Status, d.FromCache)
	}
	if ranOn[0].Load() != 0 {
		t.Fatalf("non-owner simulated %d times, want 0", ranOn[0].Load())
	}
	if !bytes.Equal(getResultBytes(t, nodes[0].ts, v0.ID), getResultBytes(t, nodes[1].ts, v1.ID)) {
		t.Fatal("proxied result differs from the owner's result")
	}
	if st := nodes[0].cl.Stats(); st.ProxyCacheHits != 1 {
		t.Fatalf("proxy_cache_hits = %d, want 1", st.ProxyCacheHits)
	}
	if st := nodes[0].srv.cache.Stats(); st.RemoteHits != 1 {
		t.Fatalf("cache remote hits = %d, want 1", st.RemoteHits)
	}
	// The mirrored metric agrees with the cache stats.
	if got := metricValue(t, nodes[0].ts, "texsimd_result_cache_remote_hits_total"); got != 1 {
		t.Fatalf("remote-hits metric = %v, want 1", got)
	}
}

// TestClusterSpillOnFullQueue: a full local queue forwards to a peer with
// capacity instead of answering 429 — and only 429s once every peer is
// saturated too.
func TestClusterSpillOnFullQueue(t *testing.T) {
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-release[i]:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return echoPayload(t, req), nil
		}
	})
	seen := map[string]bool{}
	// All specs owned by node 0 so routing never kicks in; only spill does.
	blocker := specOwnedBy(t, nodes, 0, seen)
	filler := specOwnedBy(t, nodes, 0, seen)
	spilled := specOwnedBy(t, nodes, 0, seen)
	filler1 := specOwnedBy(t, nodes, 0, seen)
	rejected := specOwnedBy(t, nodes, 0, seen)

	vBlock, code := postJobWith(t, nodes[0].ts, blocker, nil)
	if code != http.StatusAccepted {
		t.Fatalf("blocker returned %d", code)
	}
	waitRunning(t, nodes[0].ts, vBlock.ID)
	vFill, code := postJobWith(t, nodes[0].ts, filler, nil)
	if code != http.StatusAccepted {
		t.Fatalf("filler returned %d", code)
	}

	// Queue full on node 0: the next job spills to node 1.
	vSpill, code := postJobWith(t, nodes[0].ts, spilled, nil)
	if code != http.StatusAccepted {
		t.Fatalf("spill submit returned %d, want 202", code)
	}
	waitRunning(t, nodes[0].ts, vSpill.ID)
	if st := nodes[0].cl.Stats(); st.ForwardsSpill != 1 {
		t.Fatalf("forwards_spill = %d, want 1", st.ForwardsSpill)
	}
	// Node 1's worker is now blocked on the spilled job; one more fills
	// node 1's queue through a second spill...
	if _, code := postJobWith(t, nodes[0].ts, filler1, nil); code != http.StatusAccepted {
		t.Fatalf("second spill returned %d, want 202", code)
	}
	// ...and with every node saturated the caller finally sees the 429.
	if _, code := postJobWith(t, nodes[0].ts, rejected, nil); code != http.StatusTooManyRequests {
		t.Fatalf("submit with all peers saturated returned %d, want 429", code)
	}

	close(release[0])
	close(release[1])
	for _, v := range []jobView{vBlock, vFill, vSpill} {
		if d := waitDone(t, nodes[0].ts, v.ID); d.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", v.ID, d.Status, d.Error)
		}
	}
	if d := waitDone(t, nodes[0].ts, vSpill.ID); d.Peer != nodes[1].ts.URL {
		t.Fatalf("spilled job peer = %q, want %q", d.Peer, nodes[1].ts.URL)
	}
}

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		if code := getJSON(t, ts.URL+"/api/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("status %s returned %d", id, code)
		}
		if v.Status != StatusQueued {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestClusterWorkStealing: an idle peer pulls queued jobs from an
// overloaded node, runs them, and hands the results back — each job
// simulated exactly once.
func TestClusterWorkStealing(t *testing.T) {
	release := make(chan struct{})
	var execs sync.Map // key -> *atomic.Int64
	countExec := func(req *Request) {
		key, _ := resultcache.Key(req)
		n, _ := execs.LoadOrStore(key, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
	}
	blockerKey := new(atomic.Value)
	blockerKey.Store("")
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers = 1
			cfg.QueueDepth = 8
		} else {
			cfg.StealInterval = 10 * time.Millisecond
		}
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			key, _ := resultcache.Key(req)
			if key == blockerKey.Load().(string) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			countExec(req)
			return echoPayload(t, req), nil
		}
	})
	seen := map[string]bool{}
	blocker := specOwnedBy(t, nodes, 0, seen)
	blockerKey.Store(keyOf(t, blocker))

	vBlock, code := postJobWith(t, nodes[0].ts, blocker, nil)
	if code != http.StatusAccepted {
		t.Fatalf("blocker returned %d", code)
	}
	waitRunning(t, nodes[0].ts, vBlock.ID)

	// Two node-0-owned jobs queue behind the blocked worker; node 1's
	// steal loop should pull and run them while node 0 is stuck.
	var queued []jobView
	for i := 0; i < 2; i++ {
		spec := specOwnedBy(t, nodes, 0, seen)
		v, code := postJobWith(t, nodes[0].ts, spec, nil)
		if code != http.StatusAccepted {
			t.Fatalf("queued job returned %d", code)
		}
		queued = append(queued, v)
	}
	for _, v := range queued {
		d := waitDone(t, nodes[0].ts, v.ID)
		if d.Status != StatusDone {
			t.Fatalf("stolen job %s ended %s: %s", v.ID, d.Status, d.Error)
		}
		if d.Peer != nodes[1].ts.URL {
			t.Fatalf("stolen job peer = %q, want the thief %q", d.Peer, nodes[1].ts.URL)
		}
	}
	if st := nodes[0].cl.Stats(); st.StealsGiven != 2 {
		t.Fatalf("steals_given = %d, want 2", st.StealsGiven)
	}
	if st := nodes[1].cl.Stats(); st.StealsTaken != 2 {
		t.Fatalf("steals_taken = %d, want 2", st.StealsTaken)
	}
	close(release)
	if d := waitDone(t, nodes[0].ts, vBlock.ID); d.Status != StatusDone {
		t.Fatalf("blocker ended %s: %s", d.Status, d.Error)
	}
	execs.Range(func(_, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Fatalf("a job was simulated %d times, want exactly 1", n)
		}
		return true
	})
}

// TestStealLeaseExpiryAndStaleCompletion: a thief that never completes
// loses its lease — the job re-queues locally — and its late completion
// is discarded as stale rather than finishing the job twice.
func TestStealLeaseExpiryAndStaleCompletion(t *testing.T) {
	release := make(chan struct{})
	blockerKey := new(atomic.Value)
	blockerKey.Store("")
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers = 1
			cfg.QueueDepth = 8
			cfg.LeaseTimeout = 100 * time.Millisecond
		}
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			key, _ := resultcache.Key(req)
			if key == blockerKey.Load().(string) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return echoPayload(t, req), nil
		}
	})
	seen := map[string]bool{}
	blocker := specOwnedBy(t, nodes, 0, seen)
	blockerKey.Store(keyOf(t, blocker))
	victim := specOwnedBy(t, nodes, 0, seen)

	// An idle node gives nothing away.
	resp := postSteal(t, nodes[0].ts, "http://fake-thief:1")
	if resp.code != http.StatusNoContent {
		t.Fatalf("steal from idle node returned %d, want 204", resp.code)
	}

	vBlock, code := postJobWith(t, nodes[0].ts, blocker, nil)
	if code != http.StatusAccepted {
		t.Fatalf("blocker returned %d", code)
	}
	waitRunning(t, nodes[0].ts, vBlock.ID)
	vVictim, code := postJobWith(t, nodes[0].ts, victim, nil)
	if code != http.StatusAccepted {
		t.Fatalf("victim returned %d", code)
	}

	// Pose as a thief, take the job, and go silent.
	resp = postSteal(t, nodes[0].ts, "http://fake-thief:1")
	if resp.code != http.StatusOK {
		t.Fatalf("steal returned %d, want 200", resp.code)
	}
	if resp.job.JobID != vVictim.ID {
		t.Fatalf("stole %q, want %q", resp.job.JobID, vVictim.ID)
	}

	// The lease expires, the job re-queues, and the released local worker
	// finishes it.
	close(release)
	d := waitDone(t, nodes[0].ts, vVictim.ID)
	if d.Status != StatusDone {
		t.Fatalf("victim ended %s: %s", d.Status, d.Error)
	}
	localResult := getResultBytes(t, nodes[0].ts, vVictim.ID)

	// The thief finally answers — with a nonce the lease no longer matches.
	comp := cluster.Completion{
		JobID:      resp.job.JobID,
		LeaseNonce: resp.job.LeaseNonce,
		Payload:    json.RawMessage(`{"forged":true}`),
	}
	body, _ := json.Marshal(comp)
	hres, err := http.Post(nodes[0].ts.URL+"/api/v1/cluster/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusConflict {
		t.Fatalf("stale completion returned %d, want 409", hres.StatusCode)
	}
	if st := nodes[0].cl.Stats(); st.StaleCompletions != 1 {
		t.Fatalf("stale_completions = %d, want 1", st.StaleCompletions)
	}
	// The stale payload must not have replaced the real result.
	if got := getResultBytes(t, nodes[0].ts, vVictim.ID); !bytes.Equal(got, localResult) {
		t.Fatalf("result changed after stale completion: %s", got)
	}
}

type stealResp struct {
	code int
	job  cluster.StolenJob
}

func postSteal(t *testing.T, ts *httptest.Server, thief string) stealResp {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/cluster/steal", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.PeerHeader, thief)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := stealResp{code: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out.job); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestClusterHammerMixedJobs floods a 3-node cluster with distinct jobs
// from every direction under the race detector: every job must complete
// with the right payload, be simulated exactly once cluster-wide, and
// routed jobs must keep their trace across the hop.
func TestClusterHammerMixedJobs(t *testing.T) {
	var execs sync.Map // key -> *atomic.Int64
	nodes := newClusterNodes(t, 3, func(i int, cfg *Config) {
		cfg.Workers = 2
		cfg.QueueDepth = 32
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			key, _ := resultcache.Key(req)
			n, _ := execs.LoadOrStore(key, new(atomic.Int64))
			n.(*atomic.Int64).Add(1)
			return echoPayload(t, req), nil
		}
	})

	type submitted struct {
		node    int
		view    jobView
		key     string
		traceID string
	}
	const jobs = 24
	seen := map[string]bool{}
	specs := make([]*Request, jobs)
	for i := range specs {
		specs[i] = specOwnedBy(t, nodes, i%len(nodes), seen)
	}

	results := make([]submitted, jobs)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spec i is owned by node i%3; submitting to node 2i%3 makes
			// two thirds of the jobs routed and one third local.
			node := (i * 2) % len(nodes)
			var tid [16]byte
			rand.Read(tid[:])
			traceID := hex.EncodeToString(tid[:])
			tp := fmt.Sprintf("00-%s-00f067aa0ba902b7-01", traceID)
			v, code := postJobWith(t, nodes[node].ts, specs[i], map[string]string{"traceparent": tp})
			if code != http.StatusAccepted {
				t.Errorf("job %d returned %d", i, code)
				return
			}
			results[i] = submitted{node: node, view: v, key: keyOf(t, specs[i]), traceID: traceID}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, r := range results {
		d := waitDone(t, nodes[r.node].ts, r.view.ID)
		if d.Status != StatusDone {
			t.Fatalf("job %d ended %s: %s", i, d.Status, d.Error)
		}
		want := fmt.Sprintf(`{"key":%q}`, r.key)
		if got := string(getResultBytes(t, nodes[r.node].ts, r.view.ID)); got != want {
			t.Fatalf("job %d result = %s, want %s", i, got, want)
		}
		if d.Peer != "" {
			// Routed: some other node must hold spans of this trace.
			found := false
			for j, nd := range nodes {
				if j != r.node && len(nd.srv.Tracer().Snapshot(0, r.traceID)) > 0 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("job %d routed to %s but no peer has trace %s", i, d.Peer, r.traceID)
			}
		}
	}
	execs.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Fatalf("key %v simulated %d times, want exactly 1", k, n)
		}
		return true
	})
	var forwards int64
	for _, nd := range nodes {
		st := nd.cl.Stats()
		forwards += st.ForwardsRoute
	}
	if forwards == 0 {
		t.Fatal("hammer produced no routed jobs; the mix is not exercising forwarding")
	}
}

// TestClusterE2EKillPeerMidSweep is the capstone: three peers, a real
// sweep routed to its owner, the owner killed mid-run — and the job still
// completes, byte-identical to a single-node reference run, while
// /cluster reports the dead peer.
func TestClusterE2EKillPeerMidSweep(t *testing.T) {
	started := make(chan struct{})
	var startedOnce sync.Once
	nodes := newClusterNodes(t, 3, func(i int, cfg *Config) {
		cfg.Workers = 2
		if i == 1 {
			// The victim: starts the job for real, then hangs until killed —
			// a stand-in for a long sweep that never finishes.
			cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
				startedOnce.Do(func() { close(started) })
				<-ctx.Done()
				return nil, ctx.Err()
			}
		}
	})
	spec := specOwnedBy(t, nodes, 1, map[string]bool{})

	// Reference: the same spec simulated directly, no cluster involved.
	norm := &Request{Type: "sweep", Sweep: spec.Sweep}
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := sweep.RunWith(context.Background(), *norm.Sweep, sweep.RunOpts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	v, code := postJobWith(t, nodes[0].ts, spec, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started on the owner")
	}

	// Kill the owner mid-run: listener gone, server gone.
	nodes[1].ts.Close()
	nodes[1].srv.Close()

	// The supervisor on node 0 fails over and runs the sweep locally.
	d := waitDone(t, nodes[0].ts, v.ID)
	if d.Status != StatusDone {
		t.Fatalf("job after peer kill ended %s: %s", d.Status, d.Error)
	}
	got := getResultBytes(t, nodes[0].ts, v.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("failover result is not byte-identical to the reference\n got: %.200s\nwant: %.200s", got, want)
	}
	if st := nodes[0].cl.Stats(); st.Failovers == 0 {
		t.Fatal("failover counter is zero after a peer kill")
	}

	// /cluster on a survivor reports the dead peer once probes confirm it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		nodes[0].cl.ProbeNow(context.Background())
		var doc struct {
			Enabled bool                 `json:"enabled"`
			Peers   []cluster.PeerStatus `json:"peers"`
		}
		if code := getJSON(t, nodes[0].ts.URL+"/cluster", &doc); code != http.StatusOK {
			t.Fatalf("/cluster returned %d", code)
		}
		if !doc.Enabled {
			t.Fatal("/cluster reports cluster mode disabled")
		}
		down := false
		for _, p := range doc.Peers {
			if p.Addr == nodes[1].ts.URL && !p.Up {
				down = true
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/cluster never reported %s down: %+v", nodes[1].ts.URL, doc.Peers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterStatusSingleNode: /cluster stays useful without a cluster —
// it reports disabled plus the local cache and queue numbers.
func TestClusterStatusSingleNode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var doc struct {
		Enabled bool           `json:"enabled"`
		Cache   map[string]any `json:"cache"`
		Queue   map[string]any `json:"queue"`
	}
	if code := getJSON(t, ts.URL+"/cluster", &doc); code != http.StatusOK {
		t.Fatalf("/cluster returned %d", code)
	}
	if doc.Enabled {
		t.Fatal("single-node /cluster reports enabled")
	}
	if doc.Cache == nil || doc.Queue == nil {
		t.Fatalf("/cluster missing cache or queue sections: %+v", doc)
	}
	// The peer-protocol endpoints are not mounted without a cluster.
	resp, err := http.Post(ts.URL+"/api/v1/cluster/steal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("steal endpoint on single node returned %d, want 404", resp.StatusCode)
	}
}

// stealBlockedVictim boots two nodes, holds node 0's one worker with a
// blocker job, queues a node-0-owned victim behind it, and steals the
// victim as a fake thief that never runs it. mod tunes node 0's config.
// The blocker is released when the test ends.
func stealBlockedVictim(t *testing.T, mod func(cfg *Config)) ([]*clusterNode, jobView, cluster.StolenJob) {
	t.Helper()
	release := make(chan struct{})
	blockerKey := new(atomic.Value)
	blockerKey.Store("")
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers = 1
			cfg.QueueDepth = 8
			mod(cfg)
		}
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			key, _ := resultcache.Key(req)
			if key == blockerKey.Load().(string) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return echoPayload(t, req), nil
		}
	})
	t.Cleanup(func() { close(release) })
	seen := map[string]bool{}
	blocker := specOwnedBy(t, nodes, 0, seen)
	blockerKey.Store(keyOf(t, blocker))
	vBlock, code := postJobWith(t, nodes[0].ts, blocker, nil)
	if code != http.StatusAccepted {
		t.Fatalf("blocker returned %d", code)
	}
	waitRunning(t, nodes[0].ts, vBlock.ID)
	victim, code := postJobWith(t, nodes[0].ts, specOwnedBy(t, nodes, 0, seen), nil)
	if code != http.StatusAccepted {
		t.Fatalf("victim returned %d", code)
	}
	resp := postSteal(t, nodes[0].ts, "http://fake-thief:1")
	if resp.code != http.StatusOK || resp.job.JobID != victim.ID {
		t.Fatalf("steal returned %d for %q, want 200 for %q", resp.code, resp.job.JobID, victim.ID)
	}
	return nodes, victim, resp.job
}

// postCompletion posts a thief's completion to ts and returns the code.
func postCompletion(t *testing.T, ts *httptest.Server, comp cluster.Completion) int {
	t.Helper()
	body, err := json.Marshal(comp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/cluster/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestStolenJobLeavesNoJournal: a stolen job that its thief completes
// leaves the origin's journal like any finished job, so a resumed restart
// does not run it again.
func TestStolenJobLeavesNoJournal(t *testing.T) {
	dir := t.TempDir()
	nodes, victim, stolen := stealBlockedVictim(t, func(cfg *Config) { cfg.CheckpointDir = dir })
	entry := filepath.Join(dir, "jobs", victim.ID+".json")
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("stolen job not journaled: %v", err)
	}
	if code := postCompletion(t, nodes[0].ts, cluster.Completion{
		JobID: stolen.JobID, LeaseNonce: stolen.LeaseNonce, Payload: json.RawMessage(`{"stolen":true}`),
	}); code != http.StatusOK {
		t.Fatalf("completion returned %d, want 200", code)
	}
	if d := waitDone(t, nodes[0].ts, victim.ID); d.Status != StatusDone {
		t.Fatalf("victim ended %s: %s", d.Status, d.Error)
	}
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Fatalf("journal entry of a finished stolen job still there (stat: %v)", err)
	}
}

// TestJournalRoutedJob: a job the origin routes to its owner is journaled
// on the origin while the owner holds it, so a new origin that resumes
// from the same directory, as after a crash, reruns it.
func TestJournalRoutedJob(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.CheckpointDir = dir
		}
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return echoPayload(t, req), nil
		}
	})
	t.Cleanup(func() { close(release) })
	spec := specOwnedBy(t, nodes, 1, map[string]bool{})
	v, code := postJobWith(t, nodes[0].ts, spec, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	waitRunning(t, nodes[0].ts, v.ID)
	if getJSON(t, nodes[0].ts.URL+"/api/v1/jobs/"+v.ID, &v); v.Peer != nodes[1].ts.URL {
		t.Fatalf("job peer = %q, want %q", v.Peer, nodes[1].ts.URL)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", v.ID+".json")); err != nil {
		t.Fatalf("routed job not journaled while its owner holds it: %v", err)
	}

	var rerun atomic.Value
	srv, err := New(context.Background(), Config{
		Workers:       1,
		CheckpointDir: dir,
		Resume:        true,
		runOverride: func(ctx context.Context, req *Request) ([]byte, error) {
			rerun.Store(echoPayload(t, req))
			return []byte(`{}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitFor(t, func() bool { return rerun.Load() != nil }, "the journaled routed job to rerun")
	if got, want := string(rerun.Load().([]byte)), fmt.Sprintf(`{"key":%q}`, keyOf(t, spec)); got != want {
		t.Fatalf("rerun request = %s, want %s", got, want)
	}
}

// TestCancelStolenJob: DELETE on a stolen job whose thief stays silent
// cancels it at once, not at lease expiry, and the thief's later
// completion is refused as stale.
func TestCancelStolenJob(t *testing.T) {
	const lease = 10 * time.Second
	nodes, victim, stolen := stealBlockedVictim(t, func(cfg *Config) { cfg.LeaseTimeout = lease })
	req, err := http.NewRequest(http.MethodDelete, nodes[0].ts.URL+"/api/v1/jobs/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	var v jobView
	for deadline := time.Now().Add(lease / 5); ; time.Sleep(5 * time.Millisecond) {
		getJSON(t, nodes[0].ts.URL+"/api/v1/jobs/"+victim.ID, &v)
		if v.Status == StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stolen job still %s %v after DELETE (lease %v)", v.Status, lease/5, lease)
		}
	}
	if code := postCompletion(t, nodes[0].ts, cluster.Completion{
		JobID: stolen.JobID, LeaseNonce: stolen.LeaseNonce, Payload: json.RawMessage(`{"late":true}`),
	}); code != http.StatusConflict {
		t.Fatalf("completion of a canceled job returned %d, want 409", code)
	}
	if d := waitDone(t, nodes[0].ts, victim.ID); d.Status != StatusCanceled {
		t.Fatalf("canceled job became %s after a late completion", d.Status)
	}
}

// TestRemoteResultPersistedBeforeDone: by the time a routed job reads done
// on its origin, the origin's cache replica holds the result and the
// completed-jobs counter includes it. The record is polled in-process, so
// the check runs the moment Done is published. The origin's cache has a
// disk tier, as texsimd's -cache-dir gives it, so its writes take a while.
func TestRemoteResultPersistedBeforeDone(t *testing.T) {
	nodes := newClusterNodes(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cache, err := resultcache.New(resultcache.Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cache = cache
		}
		cfg.runOverride = func(ctx context.Context, req *Request) ([]byte, error) {
			return echoPayload(t, req), nil
		}
	})
	origin := nodes[0].srv
	seen := map[string]bool{}
	for n := int64(1); n <= 10; n++ {
		spec := specOwnedBy(t, nodes, 1, seen)
		v, code := postJobWith(t, nodes[0].ts, spec, nil)
		if code != http.StatusAccepted {
			t.Fatalf("submit returned %d", code)
		}
		var snap job
		for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
			snap, _ = origin.snapshot(v.ID)
			if snap.status == StatusDone || snap.status == StatusFailed || snap.status == StatusCanceled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", v.ID)
			}
		}
		if snap.status != StatusDone {
			t.Fatalf("job %s ended %s: %s", v.ID, snap.status, snap.errMsg)
		}
		if _, ok := origin.cache.Peek(keyOf(t, spec)); !ok {
			t.Fatalf("job %d: done before the origin's cache replica was written", n)
		}
		if got := origin.mCompleted.With(string(StatusDone)).Value(); got < n {
			t.Fatalf("job %d: done with texsimd_jobs_completed_total{status=\"done\"} = %d", n, got)
		}
	}
}
