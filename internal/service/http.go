package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/telemetry/tracing"
)

// Handler returns the service's HTTP API:
//
//	POST   /api/v1/jobs             submit a job (202; 429 queue full; 503 draining)
//	GET    /api/v1/jobs             list jobs in submission order
//	GET    /api/v1/jobs/{id}        job status
//	GET    /api/v1/jobs/{id}/result result payload of a done job
//	GET    /api/v1/jobs/{id}/events live job progress (SSE; Last-Event-ID replays)
//	DELETE /api/v1/jobs/{id}        cancel a queued or running job
//	GET    /metrics                 Prometheus text exposition
//	GET    /api/v1/metrics/query    sampled time series (?name=...&since=...)
//	GET    /debug/traces            recent request/job spans (JSON)
//	GET    /debug/dash              embedded live ops dashboard (HTML)
//	GET    /healthz                 liveness probe
//	GET    /cluster                 cluster status (peers, ownership, counters)
//	GET    /cluster/metrics         fleet-wide metrics merged across live peers
//
// In cluster mode (Config.Cluster set) the peer protocol is also served:
//
//	GET    /api/v1/cluster/cache/{key}  federated cache read (owner side)
//	PUT    /api/v1/cluster/cache/{key}  ownership-handoff cache write
//	POST   /api/v1/cluster/steal        hand one queued job to an idle peer
//	POST   /api/v1/cluster/complete     accept a stolen job's result
//
// Every request runs inside a server span (incoming W3C traceparent headers
// are honoured, responses carry one back) and is counted in the per-route
// request and latency metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(route, h))
	}
	handle("POST /api/v1/jobs", "submit", s.handleSubmit)
	handle("GET /api/v1/jobs", "list", s.handleList)
	handle("GET /api/v1/jobs/{id}", "status", s.handleStatus)
	handle("GET /api/v1/jobs/{id}/result", "result", s.handleResult)
	handle("GET /api/v1/jobs/{id}/events", "events", s.handleEvents)
	handle("DELETE /api/v1/jobs/{id}", "cancel", s.handleCancel)
	handle("GET /metrics", "metrics", s.handleMetrics)
	handle("GET /api/v1/metrics/query", "metrics_query", s.handleMetricsQuery)
	handle("GET /debug/traces", "traces", s.tracer.DebugHandler().ServeHTTP)
	handle("GET /debug/dash", "dash", s.handleDash)
	handle("GET /healthz", "healthz", s.handleHealthz)
	handle("GET /cluster", "cluster", s.handleClusterStatus)
	handle("GET /cluster/metrics", "cluster_metrics", s.handleClusterMetrics)
	if s.cfg.Cluster != nil {
		handle("GET /api/v1/cluster/cache/{key}", "cache_get", s.handleCacheGet)
		handle("PUT /api/v1/cluster/cache/{key}", "cache_put", s.handleCachePut)
		handle("POST /api/v1/cluster/steal", "steal", s.handleSteal)
		handle("POST /api/v1/cluster/complete", "complete", s.handleComplete)
		handle("GET /api/v1/cluster/nodemetrics", "nodemetrics", s.handleNodeMetrics)
	}
	return tracing.Middleware(s.tracer, mux)
}

// statusRecorder captures the response code for the route metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying connection's
// Flusher — the SSE endpoint streams through this wrapper.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps one route with request-count and latency metrics. The
// route label is a fixed name per pattern, never the raw path, so metric
// cardinality stays bounded.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		s.mHTTPReqs.With(route, strconv.Itoa(sr.code)).Inc()
		s.mHTTPDur.With(route).Observe(time.Since(start).Seconds())
	})
}

// TenantHeader attributes a submission to a tenant for admission control,
// fair scheduling and the per-tenant metrics. It overrides the request
// body's tenant field, so a fronting proxy that injects tenant identity
// cannot be fooled by the payload.
const TenantHeader = "X-Tenant"

// jobView is the wire shape of a job record.
type jobView struct {
	ID          string  `json:"id"`
	Type        string  `json:"type"`
	Tenant      string  `json:"tenant,omitempty"`
	Class       string  `json:"class,omitempty"`
	Status      Status  `json:"status"`
	FromCache   bool    `json:"from_cache,omitempty"`
	Error       string  `json:"error,omitempty"`
	SubmittedAt string  `json:"submitted_at"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	DurationSec float64 `json:"duration_seconds,omitempty"`
	ResultURL   string  `json:"result_url,omitempty"`
	// Peer is the cluster member executing (or having executed) the job
	// when it did not run on this node: the forward target, spill target
	// or thief.
	Peer string `json:"peer,omitempty"`
}

func viewOf(j *job) jobView {
	v := jobView{
		ID:          j.id,
		Type:        j.req.Type,
		Tenant:      j.tenant,
		Class:       j.class.String(),
		Status:      j.status,
		FromCache:   j.fromCache,
		Error:       j.errMsg,
		SubmittedAt: j.submitted.Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			v.DurationSec = j.finished.Sub(j.started).Seconds()
		}
	}
	if j.status == StatusDone {
		v.ResultURL = fmt.Sprintf("/api/v1/jobs/%s/result", j.id)
	}
	v.Peer = j.remoteAddr
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing useful to do with a write error mid-response
}

// APIError is the uniform error body of every non-2xx JSON response on the
// /api/v1 surface (and the cluster peer protocol): a stable machine-readable
// code, a human-readable message, and — on back-pressure responses that also
// carry a Retry-After header — the retry hint echoed as a field.
type APIError struct {
	Code              string `json:"code"`
	Message           string `json:"message"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// defaultErrorCode maps an HTTP status to the envelope code used when the
// handler has no more specific one.
func defaultErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "draining"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "job_gone"
	default:
		return "internal"
	}
}

// writeAPIError writes the error envelope. A positive retryAfterSeconds also
// sets the Retry-After header, so the header and the body hint never drift.
func writeAPIError(w http.ResponseWriter, status int, code string, retryAfterSeconds int, err error) {
	if retryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, map[string]APIError{"error": {
		Code: code, Message: err.Error(), RetryAfterSeconds: retryAfterSeconds,
	}})
}

// writeError is writeAPIError with the status-derived default code and no
// retry hint.
func writeError(w http.ResponseWriter, status int, err error) {
	writeAPIError(w, status, defaultErrorCode(status), 0, err)
}

// decodeRequest reads a submitted job request: at most 1 MiB, and no
// field the Request type does not declare.
func decodeRequest(w http.ResponseWriter, body io.ReadCloser) (*Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return &req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The header wins over the body field: proxies injecting tenant
	// identity must not be overridden by the payload.
	if t := r.Header.Get(TenantHeader); t != "" {
		req.Tenant = t
	}
	// A submission a peer already routed here must run here: re-forwarding
	// it could loop. Plain client submissions are free to be routed.
	routed := r.Header.Get(cluster.RoutedHeader) != ""
	j, err := s.submit(r.Context(), req, routed, false)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			code := defaultErrorCode(se.code)
			if se.apiCode != "" {
				code = se.apiCode
			}
			retry := se.retryAfter
			if retry == 0 && (se.code == http.StatusTooManyRequests ||
				se.code == http.StatusServiceUnavailable) {
				// Back-pressure: tell well-behaved clients when to retry.
				retry = 1
			}
			writeAPIError(w, se.code, code, retry, se.err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	v, _ := s.snapshot(j.id)
	writeJSON(w, http.StatusAccepted, viewOf(&v))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.list()
	views := make([]jobView, len(jobs))
	for i := range jobs {
		views[i] = viewOf(&jobs[i])
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, viewOf(&j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	switch j.status {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.result)
	case StatusFailed, StatusCanceled:
		writeError(w, http.StatusGone, fmt.Errorf("job %s %s: %s", j.id, j.status, j.errMsg))
	default:
		// Not ready yet; point the client back at the status endpoint.
		writeAPIError(w, http.StatusConflict, "not_ready", 1,
			fmt.Errorf("job %s is %s", j.id, j.status))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
		return
	}
	j, _ := s.snapshot(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "status_at_cancel": st, "job": viewOf(&j),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Mirror counters (cache, progress) track external sources; raise them
	// to the authoritative values before rendering so a scrape is never
	// stale.
	s.syncMirroredMetrics()
	w.Header().Set("Content-Type", metrics.ContentType)
	s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "jobs": n})
}
