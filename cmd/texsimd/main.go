// Command texsimd serves the simulator over HTTP: clients submit sweep or
// experiment jobs, poll their status, and fetch results; identical
// submissions are answered from a content-addressed result cache without
// re-simulating. Metrics are exposed at /metrics in Prometheus text format,
// recent request/job spans at /debug/traces, and logs are structured JSON
// on stderr (request IDs and trace IDs on every job line).
//
// Usage:
//
//	texsimd -addr :8080 -workers 4 -queue 64 -cache-dir /var/cache/texsimd \
//	        -log-level info -debug-addr localhost:6060
//
// Submit a sweep and read it back (the traceparent header is optional —
// requests without one root a fresh trace):
//
//	curl -s -X POST localhost:8080/api/v1/jobs \
//	     -H 'traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01' \
//	     -d '{"type":"sweep","sweep":{"scene":"truc640"}}'
//	curl -s localhost:8080/api/v1/jobs/job-000001
//	curl -s localhost:8080/api/v1/jobs/job-000001/result
//	curl -s localhost:8080/debug/traces
//
// -debug-addr starts a second listener (keep it private) with net/http/pprof
// profiling endpoints under /debug/pprof/ and the same /debug/traces view.
//
// Cluster mode joins several texsimd processes into one logical service
// (see README "Running a cluster"): -peers lists the other members and
// -self is this node's address as the others reach it. Jobs are routed to
// the rendezvous owner of their cache key, caches federate across nodes,
// idle nodes steal queued work (-steal-interval), and GET /cluster reports
// the peer table and the routing counters:
//
//	texsimd -addr :8080 -self host1:8080 -peers host2:8080,host3:8080
//
// SIGINT/SIGTERM stop accepting new jobs and drain queued and running ones
// (bounded by -drain-timeout) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/service"
	"repro/internal/telemetry/logging"
	"repro/internal/telemetry/tracing"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
		queue        = flag.Int("queue", 64, "job queue depth (full queue returns 429)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job timeout (0 = unlimited)")
		parallelism  = flag.Int("job-par", 1, "concurrent simulations inside one job")
		nodePar      = flag.Int("node-par", 0, "worker bound for building and replaying each simulation's frames (0 = share the -job-par budget, 1 = one worker; results are identical at every setting)")
		cacheEntries = flag.Int("cache-entries", resultcache.DefaultMaxEntries, "in-memory result cache entries")
		cacheDir     = flag.String("cache-dir", "", "on-disk result cache directory (empty = memory only)")
		noCache      = flag.Bool("no-cache", false, "disable the result cache (every job re-simulates)")
		outDir       = flag.String("out", "out", "output directory for image-producing experiment jobs")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain jobs on shutdown")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat    = flag.String("log-format", "json", "log format: json or text")
		debugAddr    = flag.String("debug-addr", "", "private listen address for pprof and trace debugging (empty = disabled)")
		spanCap      = flag.Int("trace-spans", 0, "finished spans retained for /debug/traces (0 = default)")
		sampleEvery  = flag.Duration("sample-interval", 0, "metrics time-series sampling period for /api/v1/metrics/query (0 = default 5s, negative = off)")
		samplePoints = flag.Int("sample-points", 0, "ring capacity per sampled series (0 = default 512)")
		version      = flag.Bool("version", false, "print version information and exit")

		checkpointDir = flag.String("checkpoint-dir", "", "durability directory: sweep row checkpoints and the job journal (empty = off)")
		resume        = flag.Bool("resume", true, "replay the job journal on boot (requires -checkpoint-dir)")
		tenantRate    = flag.Float64("tenant-rate", 0, "per-tenant admitted jobs per second (0 = unlimited)")
		tenantBurst   = flag.Int("tenant-burst", 8, "per-tenant token-bucket burst size")

		peers          = flag.String("peers", "", "comma-separated peer addresses (host:port or URL); empty = single-node")
		self           = flag.String("self", "", "this node's address as peers reach it (required with -peers)")
		healthInterval = flag.Duration("health-interval", 5*time.Second, "peer health probe period")
		stealInterval  = flag.Duration("steal-interval", 2*time.Second, "idle-node work-stealing poll period (0 = stealing off)")
		leaseTimeout   = flag.Duration("lease-timeout", 60*time.Second, "stolen-job lease before the origin re-queues it")
	)
	flag.Parse()

	if *version {
		bi := buildinfo.Read()
		fmt.Printf("texsimd %s (commit %s, %s)\n", bi.Version, bi.Commit, bi.Go)
		return
	}

	if *workers < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-workers %d must be non-negative", *workers))
	}
	if *queue < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-queue %d must be non-negative", *queue))
	}
	if *parallelism < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-job-par %d must be non-negative", *parallelism))
	}
	if *nodePar < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-node-par %d must be non-negative", *nodePar))
	}
	if *cacheEntries < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-cache-entries %d must be non-negative", *cacheEntries))
	}
	if *drainTimeout < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-drain-timeout %v must be non-negative", *drainTimeout))
	}
	if *peers != "" && *self == "" {
		cliutil.Usage("texsimd", "-peers requires -self (this node's address as peers reach it)")
	}
	if *healthInterval <= 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-health-interval %v must be positive", *healthInterval))
	}
	if *stealInterval < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-steal-interval %v must be non-negative", *stealInterval))
	}
	if *leaseTimeout <= 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-lease-timeout %v must be positive", *leaseTimeout))
	}
	if *samplePoints < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-sample-points %d must be non-negative", *samplePoints))
	}
	if *tenantRate < 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-tenant-rate %v must be non-negative", *tenantRate))
	}
	if *tenantBurst <= 0 {
		cliutil.Usage("texsimd", fmt.Sprintf("-tenant-burst %d must be positive", *tenantBurst))
	}

	level, err := logging.ParseLevel(*logLevel)
	cliutil.Check("texsimd", err)
	logger := logging.New(os.Stderr, level, *logFormat)

	cache, err := resultcache.New(resultcache.Config{
		MaxEntries: *cacheEntries,
		Dir:        *cacheDir,
		Disabled:   *noCache,
	})
	cliutil.Check("texsimd", err)

	tracer := tracing.NewTracer(*spanCap)

	// One registry for service and cluster metrics, so /metrics exposes both.
	reg := metrics.NewRegistry()
	var cl *cluster.Cluster
	if *peers != "" {
		cl = cluster.New(cluster.Config{
			Metrics:        reg,
			HealthInterval: *healthInterval,
			Logger:         logger,
		})
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		cl.SetPeers(*self, peerList)
	}

	// The service gets its own root context rather than the signal context:
	// SIGTERM must stop intake and drain, not cancel running jobs.
	srv, err := service.New(context.Background(), service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		Parallelism:     *parallelism,
		NodeParallelism: *nodePar,
		Cache:           cache,
		Metrics:         reg,
		OutDir:          *outDir,
		Logger:          logger,
		Tracer:          tracer,
		Cluster:         cl,
		LeaseTimeout:    *leaseTimeout,
		StealInterval:   *stealInterval,
		SampleInterval:  *sampleEvery,
		SamplePoints:    *samplePoints,
		CheckpointDir:   *checkpointDir,
		Resume:          *resume,
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
	})
	cliutil.Check("texsimd", err)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/traces", tracer.DebugHandler())
		debugSrv = &http.Server{Addr: *debugAddr, Handler: mux,
			ReadHeaderTimeout: 10 * time.Second}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cl != nil {
		cl.Start(ctx) // active health probing until shutdown
		logger.Info("cluster mode", "self", cl.Self(), "members", len(cl.Members()))
	}

	errCh := make(chan error, 2)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue)
		errCh <- httpSrv.ListenAndServe()
	}()
	if debugSrv != nil {
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			errCh <- debugSrv.ListenAndServe()
		}()
	}

	select {
	case err := <-errCh:
		cliutil.Fail("texsimd", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	logger.Info("shutting down, draining jobs", "drain_timeout", drainTimeout.String())

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop taking connections first, then drain the pool.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "error", err.Error())
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug shutdown", "error", err.Error())
		}
	}
	if err := srv.Drain(drainCtx); err != nil {
		cliutil.Fail("texsimd", fmt.Errorf("drain incomplete: %w", err))
	}
	logger.Info("drained cleanly")
}
