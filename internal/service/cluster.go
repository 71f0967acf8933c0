package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry/tracing"
)

// This file is the service half of cluster mode: job routing to the
// rendezvous owner, spill-forwarding on a full queue, supervision of
// forwarded jobs with failover, cache federation, and both sides of the
// work-stealing protocol. internal/cluster owns the peer table, the
// ownership function and the peer HTTP client; this file owns the job
// lifecycle.
//
// Everything here leans on the determinism contract (DESIGN.md §7): any
// node simulating a config hash produces the byte-identical result
// document, so a result proxied from a peer's cache, computed by a thief,
// or re-run locally after a peer died is interchangeable with a local run.

// lookupCache consults the local result cache and then, in cluster mode,
// the cache of the key's owning peer — the federated read that turns the
// peers' caches into one logical cache. A proxied hit is written back
// locally (PutRemote) so the next lookup is local. A disabled cache stays
// disabled end to end: -no-cache must re-simulate, not fetch.
func (s *Server) lookupCache(ctx context.Context, key string) ([]byte, bool) {
	if v, ok := s.cache.Get(key); ok {
		return v, true
	}
	cl := s.cfg.Cluster
	if cl == nil || s.cache.Disabled() {
		return nil, false
	}
	owner, self := cl.Owner(key)
	if self {
		return nil, false
	}
	v, ok, err := cl.FetchCached(ctx, owner, key)
	if err != nil {
		if ctx.Err() == nil {
			cl.ReportFailure(owner, err)
		}
		return nil, false
	}
	cl.ReportSuccess(owner)
	if !ok {
		cl.CountProxyMiss()
		return nil, false
	}
	cl.CountProxyHit()
	if err := s.cache.PutRemote(key, v); err != nil {
		s.logger.LogAttrs(ctx, slog.LevelWarn, "proxied result cache write failed",
			slog.String("error", err.Error()))
	}
	return v, true
}

// pushToOwner hands a freshly computed result to the key's rendezvous
// owner, best effort, so federated lookups from any node find it there.
// A no-op when there is no cluster or the owner is this node or skip.
func (s *Server) pushToOwner(ctx context.Context, key string, payload []byte, skip string) {
	cl := s.cfg.Cluster
	if cl == nil {
		return
	}
	owner, self := cl.Owner(key)
	if self || owner == skip {
		return
	}
	// The job's context may be about to die with the job; the push should
	// still get its own short budget.
	pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	if err := cl.PushCached(pctx, owner, key, payload); err != nil {
		cl.ReportFailure(owner, err)
		return
	}
	cl.ReportSuccess(owner)
}

// submitRouted registers a job whose cache key a peer owns and hands it
// to a supervisor goroutine that forwards it there and shepherds it to a
// terminal state (including failover back to this node if the owner
// dies). The caller sees an ordinary accepted job.
func (s *Server) submitRouted(ctx context.Context, req *Request, key, owner string) (*job, error) {
	j, _, err := s.register(ctx, req, key, false)
	if err != nil {
		return nil, err
	}
	s.mSubmitted.With(req.Type).Inc()
	s.logger.LogAttrs(j.ctx, slog.LevelInfo, "job routed to owner",
		slog.String("type", req.Type), slog.String("cache_key", key[:12]),
		slog.String("peer", owner))
	s.wg.Add(1)
	go s.superviseForward(j, owner, "route")
	return j, nil
}

// submitSpill is the queue-full escape hatch: before the caller sees a
// 429, try every alive peer and hand the job to the first one with
// capacity. Only when all peers are saturated (or down) does the original
// rejection stand.
func (s *Server) submitSpill(ctx context.Context, req *Request, key string) (*job, error) {
	cl := s.cfg.Cluster
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &submitError{code: 400, err: err}
	}
	for _, addr := range cl.AlivePeers() {
		remoteID, err := cl.ForwardJob(ctx, addr, body)
		if err != nil {
			cl.CountForwardFailure()
			if !errors.Is(err, cluster.ErrPeerSaturated) {
				cl.ReportFailure(addr, err)
			}
			continue
		}
		cl.ReportSuccess(addr)
		j, _, rerr := s.register(ctx, req, key, false)
		if rerr != nil {
			// Drain raced the spill; release the remote job.
			s.cancelRemote(ctx, addr, remoteID)
			return nil, rerr
		}
		cl.CountForward("spill")
		s.mSubmitted.With(req.Type).Inc()
		s.logger.LogAttrs(j.ctx, slog.LevelInfo, "job spilled to peer",
			slog.String("peer", addr), slog.String("remote_id", remoteID))
		if s.startRemote(j, addr, remoteID) {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.supervisePoll(j, addr, remoteID)
			}()
		}
		return j, nil
	}
	return nil, &submitError{code: 429, err: fmt.Errorf("all peers saturated")}
}

// superviseForward forwards a registered job to target and supervises it.
// An unreachable target (or one that refuses the job) falls back to local
// execution — the origin node always has somewhere to run a job.
func (s *Server) superviseForward(j *job, target, reason string) {
	defer s.wg.Done()
	cl := s.cfg.Cluster
	body, err := json.Marshal(j.req)
	if err != nil {
		s.finish(j, nil, false, err)
		return
	}
	remoteID, err := cl.ForwardJob(j.tracedCtx(), target, body)
	if err != nil {
		cl.CountForwardFailure()
		if !errors.Is(err, cluster.ErrPeerSaturated) {
			cl.ReportFailure(target, err)
		}
		s.logger.LogAttrs(j.ctx, slog.LevelWarn, "forward failed, running locally",
			slog.String("peer", target), slog.String("error", err.Error()))
		s.runLocalFallback(j)
		return
	}
	cl.ReportSuccess(target)
	cl.CountForward(reason)
	if s.startRemote(j, target, remoteID) {
		s.supervisePoll(j, target, remoteID)
	}
}

// startRemote marks j running as remoteID on addr, the peer its forward
// just landed on, and reports whether j is still live. A job canceled
// before the forward landed is not, and its remote copy is released.
func (s *Server) startRemote(j *job, addr, remoteID string) bool {
	s.mu.Lock()
	live := !j.claimed
	if live {
		j.status = StatusRunning
		j.started = time.Now()
		j.remoteAddr, j.remoteID = addr, remoteID
	}
	s.mu.Unlock()
	if !live {
		s.cancelRemote(j.ctx, addr, remoteID)
	}
	return live
}

// cancelRemote releases job remoteID on addr, best effort, on a budget of
// its own: ctx may already be dead.
func (s *Server) cancelRemote(ctx context.Context, addr, remoteID string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	s.cfg.Cluster.CancelJob(ctx, addr, remoteID)
}

// supervisePoll polls the peer executing job j until it reaches a
// terminal state, the peer is lost (failover to local execution), or the
// job is canceled. It must be called after startRemote and with the wg
// slot held by the caller's goroutine.
func (s *Server) supervisePoll(j *job, addr, remoteID string) {
	cl := s.cfg.Cluster
	ctx := j.tracedCtx()
	t := time.NewTicker(s.cfg.PollInterval)
	defer t.Stop()
	consecFails := 0
	for {
		select {
		case <-j.ctx.Done():
			// Canceled via DELETE, Close, or drain timeout: release the
			// remote job and record the cancellation.
			s.cancelRemote(j.ctx, addr, remoteID)
			s.finish(j, nil, false, fmt.Errorf("job canceled: %w", j.ctx.Err()))
			return
		case <-t.C:
		}
		st, err := cl.JobStatus(ctx, addr, remoteID)
		if err != nil {
			if errors.Is(err, cluster.ErrRemoteJobLost) {
				// The peer restarted and lost its job table.
				s.failover(j, addr, err)
				return
			}
			cl.ReportFailure(addr, err)
			consecFails++
			if !cl.IsAlive(addr) || consecFails >= 3 {
				s.failover(j, addr, err)
				return
			}
			continue
		}
		cl.ReportSuccess(addr)
		consecFails = 0
		switch Status(st.Status) {
		case StatusDone:
			payload, err := cl.JobResult(ctx, addr, remoteID)
			if err != nil {
				s.failover(j, addr, err)
				return
			}
			s.finish(j, payload, st.FromCache, nil)
			return
		case StatusFailed:
			s.finish(j, nil, false, fmt.Errorf("peer %s: %s", addr, st.Error))
			return
		case StatusCanceled:
			// The peer's job died with the peer's shutdown, not by our
			// request — the work still needs to happen.
			s.failover(j, addr, fmt.Errorf("peer %s canceled the job: %s", addr, st.Error))
			return
		}
	}
}

// failover re-dispatches a remote job after its executing peer was lost:
// it runs locally, the one place the origin can always reach.
func (s *Server) failover(j *job, addr string, cause error) {
	s.cfg.Cluster.CountFailover()
	s.logger.LogAttrs(j.ctx, slog.LevelWarn, "peer lost, failing over to local run",
		slog.String("peer", addr), slog.String("error", cause.Error()))
	s.runLocalFallback(j)
}

// runLocalFallback puts a supervised job back on the local queue. The push
// is forced past the capacity bound — a supervised job must never be
// dropped, and the overshoot is bounded by the number of outstanding
// forwards. The job reaches a terminal state either through a local worker
// or through cancellation.
func (s *Server) runLocalFallback(j *job) {
	s.mu.Lock()
	if j.claimed {
		s.mu.Unlock()
		return
	}
	if !s.draining {
		// A closed queue means Drain won the race between the flag and the
		// push.
		if _, closed := s.q.push(j, true); !closed {
			j.status = StatusQueued
			j.remoteAddr, j.remoteID = "", ""
			s.enqueuedJob(j)
			s.mu.Unlock()
			s.logger.LogAttrs(j.ctx, slog.LevelInfo, "job re-queued locally")
			return
		}
	}
	s.mu.Unlock()
	s.finish(j, nil, false, fmt.Errorf("executing peer lost while draining"))
}

// --- work stealing: giving side ---------------------------------------

// handleSteal hands one queued job to an idle peer. The job is popped off
// the worker queue — exactly one consumer ever receives it, which is the
// no-double-simulation guarantee — and leased under a nonce; if the thief
// never completes it, the lease watchdog re-queues it here and any late
// completion is discarded as stale.
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	cl := s.cfg.Cluster
	thief := r.Header.Get(cluster.PeerHeader)
	if thief == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing %s header", cluster.PeerHeader))
		return
	}
	// Only an overloaded node gives work away: every worker busy and jobs
	// still waiting. Otherwise a local worker is about to pick the job up
	// anyway, and the steal would just add a network hop.
	if int(s.mRunning.Value()) < s.cfg.Workers {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j := s.q.steal()
	if j == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.dequeuedJob(j)
	s.mu.Lock()
	if j.claimed {
		// Canceled while queued; finish records its terminal state.
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.remoteAddr = thief
	j.stolenBy = thief
	j.leaseNonce = cluster.NewNonce()
	nonce := j.leaseNonce
	s.mu.Unlock()
	s.mQueueWait.With(j.req.Type).Observe(j.started.Sub(j.submitted).Seconds())
	cl.CountStealGiven()
	s.logger.LogAttrs(j.ctx, slog.LevelInfo, "job stolen by peer",
		slog.String("peer", thief))
	s.wg.Add(1)
	go s.watchLease(j, nonce)

	resp := cluster.StolenJob{JobID: j.id, LeaseNonce: nonce, Key: j.key}
	if !j.traceID.IsZero() {
		resp.Traceparent = tracing.Traceparent(j.traceID, j.parentSpan)
	}
	body, err := json.Marshal(j.req)
	if err != nil {
		// Unmarshalable requests cannot be submitted; defensive only.
		s.finish(j, nil, false, err)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp.Request = body
	writeJSON(w, http.StatusOK, resp)
}

// watchLease ends a stolen job's lease: it re-queues the job when the thief
// goes quiet, and finishes it canceled when it is canceled here first.
// Invalidating the nonce first makes either handoff race-free: the
// completion arrives while the nonce is live and wins, or the nonce dies
// and the late completion is stale.
func (s *Server) watchLease(j *job, nonce string) {
	defer s.wg.Done()
	t := time.NewTimer(s.cfg.LeaseTimeout)
	defer t.Stop()
	select {
	case <-j.ctx.Done():
		// Finished (finish cancels the job context) or canceled.
	case <-t.C:
	}
	s.mu.Lock()
	if j.claimed || j.leaseNonce != nonce {
		s.mu.Unlock()
		return
	}
	j.leaseNonce = ""
	if j.ctx.Err() != nil {
		s.mu.Unlock()
		s.finish(j, nil, false, fmt.Errorf("job canceled: %w", j.ctx.Err()))
		return
	}
	j.stolenBy = ""
	j.remoteAddr = ""
	s.mu.Unlock()
	s.logger.LogAttrs(j.ctx, slog.LevelWarn, "steal lease expired, re-queueing")
	s.runLocalFallback(j)
}

// handleComplete accepts a thief's result for a leased job. A completion
// whose nonce no longer matches — the lease expired and the job moved on
// — is discarded with a 409 so the job cannot finish twice.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	cl := s.cfg.Cluster
	var comp cluster.Completion
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&comp); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding completion: %w", err))
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[comp.JobID]
	if !ok || j.status != StatusRunning || j.stolenBy == "" || j.leaseNonce == "" ||
		j.leaseNonce != comp.LeaseNonce {
		s.mu.Unlock()
		cl.CountStaleCompletion()
		writeAPIError(w, http.StatusConflict, "stale_completion", 0,
			fmt.Errorf("no live lease matches completion for job %s", comp.JobID))
		return
	}
	// Claim the lease under the lock: once the nonce is cleared, the lease
	// watchdog can no longer re-queue the job, so this completion owns it.
	j.leaseNonce = ""
	thief := j.stolenBy
	s.mu.Unlock()

	var err error
	if comp.Error != "" {
		err = fmt.Errorf("thief %s: %s", thief, comp.Error)
	} else if len(comp.Payload) == 0 {
		err = fmt.Errorf("thief %s posted an empty completion", thief)
	}
	s.finish(j, comp.Payload, false, err)
	writeJSON(w, http.StatusOK, map[string]any{"accepted": true})
}

// --- work stealing: taking side ---------------------------------------

// stealLoop runs on idle nodes: when no local work is queued and workers
// sit idle, pull one queued job from an overloaded peer per tick.
func (s *Server) stealLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
		if s.q.len() > 0 || int(s.mRunning.Value()) >= s.cfg.Workers {
			continue // not idle; local work first
		}
		s.stealOnce(s.baseCtx)
	}
}

// stealOnce asks each alive peer in turn for one queued job and runs the
// first one given. It reports whether a job was stolen and run.
func (s *Server) stealOnce(ctx context.Context) bool {
	cl := s.cfg.Cluster
	for _, addr := range cl.AlivePeers() {
		sj, err := cl.Steal(ctx, addr)
		if err != nil {
			if ctx.Err() != nil {
				return false
			}
			cl.ReportFailure(addr, err)
			continue
		}
		cl.ReportSuccess(addr)
		if sj == nil {
			continue
		}
		cl.CountStealTaken()
		s.runStolen(ctx, addr, sj)
		return true
	}
	return false
}

// runStolen runs one stolen job through the execute step and posts the
// result back to its origin, which still owns the client-facing record
// and finishes it.
func (s *Server) runStolen(ctx context.Context, origin string, sj *cluster.StolenJob) {
	cl := s.cfg.Cluster
	if tid, sid, ok := tracing.ParseTraceparent(sj.Traceparent); ok {
		ctx = tracing.ContextWithRemoteParent(ctx, tid, sid)
	}
	ctx, span := s.tracer.StartSpan(ctx, "job stolen")
	defer span.End()
	span.SetAttr("peer", origin)
	span.SetAttr("origin_job_id", sj.JobID)

	var req Request
	err := json.Unmarshal(sj.Request, &req)
	if err == nil {
		err = req.normalize()
	}
	comp := cluster.Completion{JobID: sj.JobID, LeaseNonce: sj.LeaseNonce}
	if err == nil {
		comp.Payload, _, err = s.compute(ctx, sj.Key, &req, nil, origin)
	}
	if err != nil {
		comp.Error = err.Error()
		span.SetError(err)
	}
	accepted, cerr := cl.Complete(ctx, origin, comp)
	switch {
	case cerr != nil:
		// The origin is unreachable; its lease watchdog will re-queue the
		// job there. Our run is wasted work, not a correctness problem.
		cl.ReportFailure(origin, cerr)
		span.SetError(cerr)
	case !accepted:
		span.SetAttr("stale", "true")
	}
}

// --- cluster HTTP surface ---------------------------------------------

// validCacheKey reports whether key looks like a resultcache key (64
// lowercase hex); anything else never names a cache entry and must not
// reach the disk tier as a path component.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleCacheGet serves a federated cache read: the local cache only,
// via Peek so a peer's probe does not skew this node's hit ratio.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key"))
		return
	}
	val, ok := s.cache.Peek(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", key[:12]))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(val)
}

// handleCachePut accepts an ownership-handoff write from a peer that
// computed a result for a key this node owns.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key"))
		return
	}
	val, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading entry: %w", err))
		return
	}
	if !json.Valid(val) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("entry is not JSON"))
		return
	}
	if err := s.cache.Put(key, val); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterStatus serves GET /cluster: the peer health table,
// ownership shares, the steal/proxy/forward counters and the cache stats
// — every number read from its single authoritative source.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	s.syncMirroredMetrics()
	cl := s.cfg.Cluster
	st := s.cache.Stats()
	queued := s.q.len()
	doc := map[string]any{
		"enabled": cl != nil,
		"cache": map[string]any{
			"hits":        st.Hits,
			"misses":      st.Misses,
			"remote_hits": st.RemoteHits,
			"evictions":   st.Evictions,
			"entries":     s.cache.Len(),
		},
		"queue": map[string]any{
			"queued":  queued,
			"running": int(s.mRunning.Value()),
			"workers": s.cfg.Workers,
			"depth":   s.q.depth(),
		},
	}
	if cl != nil {
		doc["self"] = cl.Self()
		doc["members"] = cl.Members()
		doc["peers"] = cl.Peers()
		doc["ownership"] = cl.Ownership(0)
		doc["counters"] = cl.Stats()
	}
	writeJSON(w, http.StatusOK, doc)
}

// syncMirroredMetrics raises the exported mirror counters to their
// authoritative sources — the result cache's cumulative stats and the
// progress broker's event count. One source of truth per number, mirrored
// monotonically before every scrape and sample.
func (s *Server) syncMirroredMetrics() {
	st := s.cache.Stats()
	s.mCacheHit.SyncTo(int64(st.Hits))
	s.mCacheMiss.SyncTo(int64(st.Misses))
	s.mCacheRem.SyncTo(int64(st.RemoteHits))
	s.mCacheEvict.SyncTo(int64(st.Evictions))
	s.mProgEvents.SyncTo(s.progress.TotalEvents())
}
