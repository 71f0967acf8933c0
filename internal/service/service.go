// Package service implements texsimd's simulation service: a REST API over
// a bounded job queue and worker pool, fronted by a content-addressed result
// cache and instrumented with Prometheus-style metrics.
//
// Lifecycle of a job: POST /api/v1/jobs validates the request and enqueues
// it (429 when the queue is full, 503 while draining); a worker picks it up,
// serves it from the result cache when an identical request has already been
// simulated, and otherwise runs the simulation under a per-job
// (cancellable, optionally timed-out) context. Clients poll
// GET /api/v1/jobs/{id} and fetch GET /api/v1/jobs/{id}/result.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/sweep"
	"repro/internal/telemetry/logging"
	"repro/internal/telemetry/progress"
	"repro/internal/telemetry/tracing"
)

// Config tunes the service. Zero values mean the documented defaults.
type Config struct {
	// Workers is the worker-pool size (0 = NumCPU).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (0 = 64).
	QueueDepth int
	// JobTimeout caps one job's run time (0 = unlimited).
	JobTimeout time.Duration
	// Parallelism bounds concurrent simulations inside one job (0 = 1:
	// cross-job parallelism comes from the worker pool).
	Parallelism int
	// NodeParallelism bounds the workers each simulation uses to build and
	// replay its frames (0 = share the job's Parallelism budget, 1 = one
	// worker; see sweep.RunOpts). Results are identical at every setting.
	NodeParallelism int
	// Cache, when nil, is replaced by an in-memory cache with default
	// capacity.
	Cache *resultcache.Cache
	// Metrics, when nil, is replaced by a fresh registry. The registry is
	// what GET /metrics renders.
	Metrics *metrics.Registry
	// OutDir is where image-producing experiment jobs write files
	// (default "out").
	OutDir string
	// Logger receives structured job/request logs (nil = discard).
	Logger *slog.Logger
	// Tracer records request and job spans (nil = a fresh tracer with
	// default capacity). Handler serves its ring at /debug/traces.
	Tracer *tracing.Tracer
	// Progress is the job-progress broker behind GET /api/v1/jobs/{id}/events
	// (nil = a fresh broker). Pass a shared broker to observe events from
	// outside the server too — texsweep's -progress works this way.
	Progress *progress.Broker
	// SampleInterval is the metrics time-series sampling period behind
	// /api/v1/metrics/query (0 = 5s, negative = sampling disabled).
	SampleInterval time.Duration
	// SamplePoints bounds retained history per series (0 = 512). Sampler
	// memory is O(series × SamplePoints), independent of uptime.
	SamplePoints int

	// Cluster, when non-nil, makes the server peer-aware: submissions are
	// routed to the rendezvous owner of their cache key, cache misses ask
	// the owning peer before simulating, a full queue spills to peers
	// before answering 429, and the peer-protocol endpoints (steal,
	// complete, cache federation) plus GET /cluster are served. Share the
	// cluster's metrics registry with Metrics so /metrics exposes both.
	Cluster *cluster.Cluster
	// PollInterval is how often a forwarded job's supervisor polls the
	// executing peer (0 = 250ms).
	PollInterval time.Duration
	// LeaseTimeout bounds a stolen job's lease: if the thief has not
	// posted a completion by then, the job is re-queued locally and a
	// late completion is discarded as stale (0 = 60s).
	LeaseTimeout time.Duration
	// StealInterval is the idle-node work-stealing poll period
	// (0 = stealing disabled; health checking and routing still work).
	StealInterval time.Duration

	// CheckpointDir, when non-empty, makes jobs durable: sweep rows
	// checkpoint to a disk-backed row store under it (resumed sweeps
	// re-simulate only missing rows), and accepted jobs journal under
	// <CheckpointDir>/jobs so a restarted server can pick them back up.
	CheckpointDir string
	// Resume replays the job journal on boot (requires CheckpointDir):
	// queued and running jobs of the previous process are resubmitted under
	// fresh IDs. Row checkpoints are always honored regardless of Resume.
	Resume bool

	// TenantRate, when positive, enables per-tenant admission control:
	// each tenant's submissions are limited to TenantRate jobs/second with
	// bursts of TenantBurst. Refusals answer 429 with Retry-After.
	TenantRate float64
	// TenantBurst is the token-bucket burst size (0 = 8).
	TenantBurst int

	// runOverride replaces job execution in tests.
	runOverride func(ctx context.Context, req *Request) ([]byte, error)
}

// Request is the submit-endpoint body: exactly one of Sweep or Experiment
// must be set, matching Type.
type Request struct {
	// Type is "sweep" or "experiment".
	Type string `json:"type"`
	// Sweep runs a parameter sweep (see sweep.Spec for defaults).
	Sweep *sweep.Spec `json:"sweep,omitempty"`
	// Experiment reproduces one paper table/figure by ID.
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	// Tenant attributes the job for admission control, fair scheduling and
	// the texsimd_tenant_* metrics ("" = "default"). The X-Tenant request
	// header overrides it. Deliberately excluded from the result-cache key:
	// identical requests from different tenants share one cached result.
	Tenant string `json:"tenant,omitempty"`
}

// ExperimentSpec names a paper experiment.
type ExperimentSpec struct {
	// ID is an experiment identifier (texbench -list).
	ID string `json:"id"`
	// Scale is the scene resolution scale (0 = 0.5).
	Scale float64 `json:"scale,omitempty"`
}

// normalize defaults the request in place so that equivalent submissions
// share one cache key, and validates it.
func (r *Request) normalize() error {
	if len(r.Tenant) > 64 {
		return fmt.Errorf("tenant name longer than 64 bytes")
	}
	switch r.Type {
	case "sweep":
		if r.Sweep == nil || r.Experiment != nil {
			return fmt.Errorf("type %q requires exactly the sweep field", r.Type)
		}
		*r.Sweep = r.Sweep.WithDefaults()
		return r.Sweep.Validate()
	case "experiment":
		if r.Experiment == nil || r.Sweep != nil {
			return fmt.Errorf("type %q requires exactly the experiment field", r.Type)
		}
		if r.Experiment.Scale == 0 {
			r.Experiment.Scale = 0.5
		}
		if r.Experiment.Scale < 0 || r.Experiment.Scale > 1 {
			return fmt.Errorf("experiment scale %v out of (0, 1]", r.Experiment.Scale)
		}
		if _, ok := experiments.ByID(r.Experiment.ID); !ok {
			return fmt.Errorf("unknown experiment %q", r.Experiment.ID)
		}
		return nil
	default:
		return fmt.Errorf("unknown job type %q (sweep or experiment)", r.Type)
	}
}

// scene labels the request for the per-scene latency metric.
func (r *Request) scene() string {
	switch r.Type {
	case "sweep":
		return r.Sweep.Scene
	case "experiment":
		return "exp:" + r.Experiment.ID
	}
	return "unknown"
}

// Status is a job's lifecycle state.
type Status string

// Job states, in order.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// job is the internal record; jobView is its wire shape.
type job struct {
	id        string
	req       *Request
	tenant    string          // normalized tenant (never empty)
	class     jobClass        // scheduling band
	key       string          // result-cache key
	ctx       context.Context // cancelled by Cancel/Close; basis of the run context
	status    Status
	errMsg    string
	result    []byte // JSON payload once done
	fromCache bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil from submission until finish
	// claimed is set once, by finish: the job is ending, and its terminal
	// status follows as soon as finish has persisted everything.
	claimed bool

	// requestID correlates the job's log lines and spans with the HTTP
	// request that submitted it (the submit span's ID, or the job ID for
	// direct Submit callers).
	requestID string
	// traceID/parentSpan carry the submit-time trace context so the job's
	// run span joins the same trace, however much later a worker picks the
	// job up.
	traceID    tracing.TraceID
	parentSpan tracing.SpanID

	// Cluster-mode fields. remoteAddr/remoteID identify the peer executing
	// a forwarded job (and the job's identity there); stolenBy/leaseNonce
	// track an outstanding steal lease — a completion must quote the live
	// nonce or it is discarded as stale.
	remoteAddr string
	remoteID   string
	stolenBy   string
	leaseNonce string
}

// tracedCtx is j's context joined to the submitter's trace (stored on the
// record at submit time), for the spans and peer calls made on j's behalf.
func (j *job) tracedCtx() context.Context {
	if j.traceID.IsZero() {
		return j.ctx
	}
	return tracing.ContextWithRemoteParent(j.ctx, j.traceID, j.parentSpan)
}

// Server is the simulation service. Create with New, expose with Handler,
// stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg      Config
	reg      *metrics.Registry
	cache    *resultcache.Cache
	logger   *slog.Logger
	tracer   *tracing.Tracer
	progress *progress.Broker
	sampler  *metrics.Sampler

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// stop ends the sampler loop on Drain's clean path, which never cancels
	// baseCtx; closed exactly once via stopOnce.
	stop     chan struct{}
	stopOnce sync.Once

	wg sync.WaitGroup

	// q is the worker queue: class-banded, round-robin across tenants.
	// rows/journalDir/quota are the durability and admission-control
	// plumbing, nil/empty unless configured.
	q          *fairQueue
	rows       sweep.RowStore
	journalDir string
	quota      *tenantQuotas

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	seq      uint64
	draining bool

	mSubmitted  *metrics.CounterVec // by type
	mCompleted  *metrics.CounterVec // by final status
	mRejected   *metrics.Counter
	mPanics     *metrics.Counter
	mQueued     *metrics.Gauge
	mRunning    *metrics.Gauge
	mCacheHit   *metrics.Counter
	mCacheMiss  *metrics.Counter
	mCacheRem   *metrics.Counter
	mCacheEvict *metrics.Counter
	mSimCycles  *metrics.Counter
	mCPS        *metrics.Gauge
	mDuration   *metrics.HistogramVec // by scene
	mQueueWait  *metrics.HistogramVec // by type
	mHTTPReqs   *metrics.CounterVec   // by route, code
	mHTTPDur    *metrics.HistogramVec // by route
	mProgStream *metrics.Gauge
	mProgEvents *metrics.Counter

	mTenantQueued   *metrics.GaugeVec   // by tenant
	mTenantRunning  *metrics.GaugeVec   // by tenant
	mTenantRejected *metrics.CounterVec // by tenant, reason
}

// New builds the server and starts its worker pool. ctx is the root of
// every job's context: cancelling it aborts all queued and running work
// immediately (Close does the same). Pass context.Background() for a server
// that should drain gracefully on shutdown instead — as cmd/texsimd does —
// so that SIGTERM stops intake without killing in-flight jobs.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.OutDir == "" {
		cfg.OutDir = "out"
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Cache == nil {
		var err error
		cfg.Cache, err = resultcache.New(resultcache.Config{})
		if err != nil {
			return nil, err
		}
	}
	if cfg.Tracer == nil {
		cfg.Tracer = tracing.NewTracer(0)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 60 * time.Second
	}
	if cfg.Progress == nil {
		cfg.Progress = progress.NewBroker()
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 5 * time.Second
	}
	if cfg.SamplePoints <= 0 {
		cfg.SamplePoints = 512
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 8
	}
	logger := cfg.Logger
	if logger == nil {
		logger = logging.Discard()
	}
	baseCtx, baseCancel := context.WithCancel(ctx)
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Metrics,
		cache:      cfg.Cache,
		logger:     logger,
		tracer:     cfg.Tracer,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		progress:   cfg.Progress,
		stop:       make(chan struct{}),
		q:          newFairQueue(cfg.QueueDepth),
		jobs:       make(map[string]*job),
	}
	if cfg.TenantRate > 0 {
		s.quota = newTenantQuotas(cfg.TenantRate, cfg.TenantBurst)
	}
	if cfg.CheckpointDir != "" {
		// Row checkpoints live in their own disk-backed cache (namespaced so
		// keys cannot collide with anything else sharing the directory), and
		// the job journal in a subdirectory beside them.
		rc, err := resultcache.New(resultcache.Config{
			Dir: cfg.CheckpointDir, MaxEntries: 4096,
		})
		if err != nil {
			baseCancel()
			return nil, err
		}
		s.rows = rc.Namespace("sweeprow")
		dir := filepath.Join(cfg.CheckpointDir, "jobs")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			baseCancel()
			return nil, fmt.Errorf("service: job journal: %w", err)
		}
		s.journalDir = dir
	}
	s.sampler = metrics.NewSampler(cfg.Metrics, cfg.SamplePoints)
	r := s.reg
	s.mSubmitted = r.CounterVec("texsimd_jobs_submitted_total", "Jobs accepted into the queue.", "type")
	s.mCompleted = r.CounterVec("texsimd_jobs_completed_total", "Jobs finished, by final status.", "status")
	s.mRejected = r.Counter("texsimd_jobs_rejected_total", "Submissions rejected because the queue was full.")
	s.mPanics = r.Counter("texsimd_worker_panics_total", "Worker panics isolated (job marked failed).")
	s.mQueued = r.Gauge("texsimd_jobs_queued", "Jobs waiting in the queue.")
	s.mRunning = r.Gauge("texsimd_jobs_running", "Jobs currently simulating.")
	// The cache counters mirror resultcache.Stats — the cache is the single
	// source of truth; syncCacheMetrics raises these before every scrape.
	s.mCacheHit = r.Counter("texsimd_result_cache_hits_total", "Result-cache lookups served locally (memory or disk).")
	s.mCacheMiss = r.Counter("texsimd_result_cache_misses_total", "Result-cache lookups that found nothing locally.")
	s.mCacheRem = r.Counter("texsimd_result_cache_remote_hits_total", "Result-cache lookups served from the owning peer's cache.")
	s.mCacheEvict = r.Counter("texsimd_result_cache_evictions_total", "In-memory result-cache LRU evictions.")
	s.mSimCycles = r.Counter("texsimd_simulated_cycles_total", "Simulated machine cycles across completed sweep jobs.")
	s.mCPS = r.Gauge("texsimd_simulated_cycles_per_second", "Simulated cycles per wall-second of the most recent uncached sweep job.")
	s.mDuration = r.HistogramVec("texsimd_job_duration_seconds", "Job wall time from start to finish.", nil, "scene")
	s.mQueueWait = r.HistogramVec("texsimd_job_queue_wait_seconds", "Job wall time from submission to a worker picking it up.", nil, "type")
	s.mHTTPReqs = r.CounterVec("texsimd_http_requests_total", "HTTP requests served, by route and status code.", "route", "code")
	s.mHTTPDur = r.HistogramVec("texsimd_http_request_duration_seconds", "HTTP request wall time, by route.", nil, "route")
	s.mProgStream = r.Gauge("texsimd_progress_streams", "Open job-progress event streams (SSE subscribers).")
	// The broker's own count stays authoritative; syncMirroredMetrics
	// raises this mirror before every scrape and sample.
	s.mProgEvents = r.Counter("texsimd_progress_events_total", "Progress events published across all jobs.")
	s.mTenantQueued = r.GaugeVec("texsimd_tenant_queued", "Jobs waiting in the queue, by tenant.", "tenant")
	s.mTenantRunning = r.GaugeVec("texsimd_tenant_running", "Jobs currently simulating, by tenant.", "tenant")
	s.mTenantRejected = r.CounterVec("texsimd_tenant_rejected_total", "Submissions rejected, by tenant and reason (queue_full or quota).", "tenant", "reason")
	bi := buildinfo.Read()
	r.GaugeVec("texsimd_build_info", "Build metadata carried as labels; the value is always 1.",
		"version", "commit", "go").With(bi.Version, bi.Commit, bi.Go).Set(1)

	if cfg.SampleInterval > 0 {
		s.wg.Add(1)
		go s.sampleLoop()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Cluster != nil && cfg.StealInterval > 0 {
		s.wg.Add(1)
		go s.stealLoop()
	}
	if cfg.Resume && s.journalDir != "" {
		s.recoverJournal()
	}
	return s, nil
}

// Tracer returns the server's span tracer — its ring backs /debug/traces.
func (s *Server) Tracer() *tracing.Tracer { return s.tracer }

// Submit validates, registers and enqueues a request. It returns the job
// record, or an error classified by errSubmit. ctx is only the carrier of
// the submitter's trace context and request ID (from the HTTP middleware);
// the job's own lifetime is governed by the server's root context, not by
// ctx, so a closed client connection never cancels an accepted job.
//
// In cluster mode the request may not run here at all: a job whose cache
// key is owned by a peer is forwarded to that peer (and supervised until
// its result lands back), and a job that finds the local queue full spills
// to any peer with capacity before the caller sees a 429.
func (s *Server) Submit(ctx context.Context, req *Request) (*job, error) {
	return s.submit(ctx, req, false, false)
}

// submit is Submit with the routing and admission decisions exposed: routed
// submissions (already forwarded once by a peer) always run locally — which
// keeps forwarding loop-free — and are quota-exempt, having been charged at
// their ingress node. exempt additionally bypasses the tenant quota for
// journal recovery, whose work was admitted by a previous process.
func (s *Server) submit(ctx context.Context, req *Request, routed, exempt bool) (*job, error) {
	if err := req.normalize(); err != nil {
		return nil, &submitError{code: 400, err: err}
	}
	tenant := tenantOrDefault(req.Tenant)
	if s.quota != nil && !routed && !exempt {
		if ok, retry := s.quota.allow(tenant, time.Now()); !ok {
			s.mTenantRejected.With(tenant, "quota").Inc()
			return nil, &submitError{code: 429, apiCode: "quota_exhausted", retryAfter: retry,
				err: fmt.Errorf("tenant %q quota exhausted, retry in %ds", tenant, retry)}
		}
	}
	// The cache key deliberately ignores the tenant: identical requests
	// share one cached result whoever submits them.
	keyReq := *req
	keyReq.Tenant = ""
	key, err := resultcache.Key(&keyReq)
	if err != nil {
		return nil, &submitError{code: 400, err: err}
	}

	cl := s.cfg.Cluster
	if cl != nil && !routed {
		if owner, self := cl.Owner(key); !self {
			return s.submitRouted(ctx, req, key, owner)
		}
	}

	j, enqueued, err := s.register(ctx, req, key, true)
	if err != nil {
		return nil, err
	}
	if !enqueued {
		if cl != nil && !routed {
			if j, err := s.submitSpill(ctx, req, key); err == nil {
				return j, nil
			}
		}
		s.mRejected.Inc()
		s.mTenantRejected.With(tenant, "queue_full").Inc()
		return nil, &submitError{code: 429, err: fmt.Errorf("job queue full (%d queued, capacity %d)", s.q.len(), s.q.depth())}
	}

	s.mSubmitted.With(req.Type).Inc()
	s.logger.LogAttrs(j.ctx, slog.LevelInfo, "job queued",
		slog.String("type", req.Type), slog.String("tenant", tenant),
		slog.String("class", j.class.String()), slog.String("cache_key", key[:12]))
	return j, nil
}

// register creates, journals and records a job for a normalized request.
// With enqueue it also pushes the job onto the worker queue, reporting a
// full queue through enqueued=false (in which case the job is NOT
// registered, its journal entry is removed and its ID is reused when no
// later ID was handed out). Without enqueue the job is registered but owned
// by the caller — the cluster forwarding paths, which supervise it instead
// of a local worker; its journal entry still lets a restarted origin rerun
// it if the origin dies while a peer holds it.
func (s *Server) register(ctx context.Context, req *Request, key string, enqueue bool) (j *job, enqueued bool, err error) {
	jctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, false, &submitError{code: 503, err: fmt.Errorf("service is draining")}
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	j = &job{
		id:        fmt.Sprintf("job-%06d", seq),
		req:       req,
		tenant:    tenantOrDefault(req.Tenant),
		class:     classify(req),
		key:       key,
		status:    StatusQueued,
		submitted: time.Now(),
		cancel:    cancel,
	}
	j.requestID = j.id
	if span := tracing.FromContext(ctx); span != nil {
		j.requestID = span.SpanID().String()
		j.traceID = span.TraceID()
		j.parentSpan = span.SpanID()
		span.SetAttr("job_id", j.id)
	}
	// Every log line of this job carries its correlation IDs.
	attrs := []slog.Attr{
		slog.String("job_id", j.id),
		slog.String("request_id", j.requestID),
	}
	if !j.traceID.IsZero() {
		attrs = append(attrs, slog.String("trace_id", j.traceID.String()))
	}
	j.ctx = logging.WithAttrs(jctx, attrs...)
	// Journal before the job becomes visible: a worker or supervisor may
	// finish it at once, and an entry written after its removal would
	// outlive the job and rerun it on the next resume.
	s.journalAdd(j)
	s.mu.Lock()
	// The push happens under s.mu so it cannot race with Drain flipping the
	// draining flag and closing the queue; it is non-blocking, so the lock
	// is never held for long.
	full := false
	if !s.draining && enqueue {
		ok, _ := s.q.push(j, false)
		full = !ok
	}
	if s.draining || full {
		if full && s.seq == seq {
			s.seq-- // unused ID
		}
		s.mu.Unlock()
		cancel()
		s.journalRemove(j.id)
		if full {
			return nil, false, nil
		}
		return nil, false, &submitError{code: 503, err: fmt.Errorf("service is draining")}
	}
	if enqueue {
		s.enqueuedJob(j)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	return j, true, nil
}

// enqueuedJob/dequeuedJob maintain the queue-occupancy gauges as exact
// counters: +1 on every successful queue push, -1 on every pop, wherever
// either happens (submit, cluster fallback re-queue, worker, steal). The
// old len(queue) sampling raced with concurrent submit+dequeue and drifted.
func (s *Server) enqueuedJob(j *job) {
	s.mQueued.Add(1)
	s.mTenantQueued.With(j.tenant).Add(1)
}

func (s *Server) dequeuedJob(j *job) {
	s.mQueued.Add(-1)
	s.mTenantQueued.With(j.tenant).Add(-1)
}

// submitError couples a submit failure with its HTTP status code, plus an
// optional API error code and Retry-After override for the error envelope
// (zero values fall back to the code-derived defaults).
type submitError struct {
	code       int
	apiCode    string
	retryAfter int
	err        error
}

func (e *submitError) Error() string { return e.err.Error() }
func (e *submitError) Unwrap() error { return e.err }

// worker consumes jobs until the queue closes (Drain/Close) and drains
// empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.dequeuedJob(j)
		s.runJob(j)
	}
}

// runJob runs one popped job through the execute step and the finish step.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.claimed { // canceled while queued; finish did the bookkeeping
		s.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	s.mu.Unlock()
	s.mQueueWait.With(j.req.Type).Observe(j.started.Sub(j.submitted).Seconds())

	// The run span joins the submitter's trace, so /debug/traces shows the
	// HTTP submit span and the worker-side run span under one trace ID
	// however long the queue wait.
	_, span := s.tracer.StartSpan(j.tracedCtx(), "job "+j.req.Type)
	span.SetAttr("job_id", j.id)
	span.SetAttr("request_id", j.requestID)
	span.SetAttr("scene", j.req.scene())

	var sink sweep.ProgressSink
	if j.req.Type == "sweep" {
		sink = progress.NewSink(s.progress, j.id)
	}
	payload, fromCache, err := s.compute(j.ctx, j.key, j.req, sink, "")
	final := s.finish(j, payload, fromCache, err)
	span.SetAttr("status", string(final))
	span.SetAttr("cache_hit", strconv.FormatBool(fromCache))
	if err != nil {
		span.SetError(err)
	}
	span.End()
}

// compute is the execute step of every job that runs on this node, queued
// here or stolen from a peer. Under the job timeout and with panics
// isolated, it serves key from the federated cache or runs req, caches a
// fresh result and hands it to the key's owner — unless the owner is
// origin, the node the result goes back to anyway. sink, when non-nil,
// observes a sweep's rows.
func (s *Server) compute(ctx context.Context, key string, req *Request, sink sweep.ProgressSink, origin string) (payload []byte, fromCache bool, err error) {
	tenant := tenantOrDefault(req.Tenant)
	s.mRunning.Add(1)
	s.mTenantRunning.With(tenant).Add(1)
	defer func() {
		s.mRunning.Add(-1)
		s.mTenantRunning.With(tenant).Add(-1)
	}()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			payload, fromCache, err = nil, false, fmt.Errorf("job panicked: %v", r)
		}
	}()
	if cached, ok := s.lookupCache(ctx, key); ok {
		return cached, true, nil
	}
	payload, err = s.execute(ctx, req, sink)
	if err != nil {
		return nil, false, err
	}
	if cerr := s.cache.Put(key, payload); cerr != nil {
		// A cold disk tier is an availability loss, not a job failure.
		s.logger.LogAttrs(ctx, slog.LevelWarn, "result cache write failed",
			slog.String("error", cerr.Error()))
	}
	s.pushToOwner(ctx, key, payload, origin)
	return payload, false, nil
}

// finish is the finish step, the only code that makes a job terminal, for
// local runs, forwarded and stolen jobs and cancellations alike. It claims
// j under s.mu, and is a no-op returning "" when another path has claimed
// it already; otherwise it returns the final status. Everything a client
// may look for once the job reads finished — a remote result's cache
// replica, the replayed rows, the metrics, the journal removal — is done
// before the status is published.
func (s *Server) finish(j *job, payload []byte, fromCache bool, err error) Status {
	s.mu.Lock()
	if j.claimed {
		s.mu.Unlock()
		return ""
	}
	j.claimed = true
	j.leaseNonce = "" // a thief's completion is stale from here on
	final := StatusDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), j.ctx.Err() != nil:
		// Cancelled via DELETE, shutdown, or the per-job timeout.
		final = StatusCanceled
	default:
		final = StatusFailed
	}
	started, peer := j.started, j.remoteAddr
	s.mu.Unlock()

	now := time.Now()
	if final == StatusDone {
		if peer != "" {
			// The origin keeps a local replica of a result computed
			// elsewhere: clients fetch it here, and identical future
			// submissions hit without a hop.
			if cerr := s.cache.Put(j.key, payload); cerr != nil {
				s.logger.LogAttrs(j.ctx, slog.LevelWarn, "result cache write failed",
					slog.String("error", cerr.Error()))
			}
		}
		if j.req.Type == "sweep" && (peer != "" || fromCache) {
			// Rows that never streamed here are replayed, so the event
			// stream carries the full row history before the terminal event.
			progress.ReplaySweep(s.progress, j.id, payload, fromCache)
		}
	}
	var wall float64
	if !started.IsZero() {
		wall = now.Sub(started).Seconds()
		if final == StatusDone && peer == "" && !fromCache && j.req.Type == "sweep" {
			var res sweep.Result
			if json.Unmarshal(payload, &res) == nil {
				s.mSimCycles.Add(int64(res.SimulatedCycles))
				if wall > 0 {
					s.mCPS.Set(res.SimulatedCycles / wall)
				}
			}
		}
		s.mDuration.With(j.req.scene()).Observe(wall)
	}
	s.mCompleted.With(string(final)).Inc()
	s.journalRemove(j.id)

	var errMsg string
	if err != nil {
		errMsg = err.Error()
	}
	s.mu.Lock()
	j.finished = now
	j.fromCache = fromCache
	j.status = final
	j.result = payload
	j.errMsg = errMsg
	s.mu.Unlock()
	j.cancel()
	s.progress.End(j.id, string(final), errMsg)

	level := slog.LevelInfo
	if final == StatusFailed {
		level = slog.LevelError
	}
	attrs := []slog.Attr{
		slog.String("status", string(final)),
		slog.Float64("wall_seconds", wall),
		slog.Bool("cache_hit", fromCache),
	}
	if peer != "" {
		attrs = append(attrs, slog.String("peer", peer))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", errMsg))
	}
	s.logger.LogAttrs(j.ctx, level, "job finished", attrs...)
	return final
}

// execute runs the actual simulation work and returns the result payload.
// ps, when non-nil, observes a sweep's per-row progress (nil for job types
// without row structure and for stolen runs, whose origin owns the stream).
func (s *Server) execute(ctx context.Context, req *Request, ps sweep.ProgressSink) ([]byte, error) {
	if s.cfg.runOverride != nil {
		return s.cfg.runOverride(ctx, req)
	}
	switch req.Type {
	case "sweep":
		res, err := sweep.RunWith(ctx, *req.Sweep, sweep.RunOpts{
			Parallelism:     s.cfg.Parallelism,
			NodeParallelism: s.cfg.NodeParallelism,
			Progress:        ps,
			Rows:            s.rows,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case "experiment":
		e, _ := experiments.ByID(req.Experiment.ID)
		rep, err := e.Run(ctx, experiments.Options{
			Scale:       req.Experiment.Scale,
			Parallelism: s.cfg.Parallelism,
			OutDir:      s.cfg.OutDir,
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("unknown job type %q", req.Type)
}

// Cancel cancels a job: a queued job finishes canceled without running, a
// running one has its context cancelled and finishes through whatever runs
// or supervises it. Finished jobs are left untouched (reported by the
// returned status).
func (s *Server) Cancel(id string) (Status, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return "", false
	}
	st, claimed := j.status, j.claimed
	s.mu.Unlock()
	switch {
	case claimed: // already finishing
	case st == StatusQueued:
		if final := s.finish(j, nil, false, fmt.Errorf("canceled before start: %w", context.Canceled)); final != "" {
			return final, true
		}
	case st == StatusRunning:
		j.cancel()
	}
	return st, true
}

// Drain stops accepting jobs, lets queued and running jobs finish, and
// returns when the pool is idle. If ctx expires first, running jobs are
// cancelled and Drain waits for them to acknowledge before returning
// ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("service: already draining")
	}
	s.draining = true
	s.q.close()
	s.mu.Unlock()
	// The sampler loop is part of s.wg but outlives jobs by design; on the
	// clean path baseCtx never dies, so it needs its own stop signal before
	// the Wait below can finish.
	s.stopSampler()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every job is terminal now; any stream still open belongs to a job
		// that never published one (defensive) — close it so SSE readers see
		// a terminal event instead of a silent hang.
		s.progress.Shutdown()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		s.progress.Shutdown()
		return ctx.Err()
	}
}

// Close cancels everything immediately and waits for workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.q.close()
	}
	s.mu.Unlock()
	s.baseCancel()
	s.stopSampler()
	s.wg.Wait()
	s.progress.Shutdown()
}

// stopSampler ends the sampler loop; safe to call from both Drain and
// Close in either order.
func (s *Server) stopSampler() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// sampleLoop snapshots every registered metric into the ring sampler on
// the configured interval, mirroring externally-counted sources first so
// sampled series match what a scrape at the same instant would say.
func (s *Server) sampleLoop() {
	defer s.wg.Done()
	// An immediate first sample, so queries right after boot have a point.
	s.syncMirroredMetrics()
	s.sampler.Sample()
	t := time.NewTicker(s.cfg.SampleInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.stop:
			return
		case <-t.C:
			s.syncMirroredMetrics()
			s.sampler.Sample()
		}
	}
}

// snapshot returns a copy of the job record for rendering.
func (s *Server) snapshot(id string) (job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return job{}, false
	}
	return *j, true
}

// list returns snapshots of all jobs in submission order.
func (s *Server) list() []job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}
