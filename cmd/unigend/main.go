// Command unigend is the sampling-as-a-service daemon: an HTTP JSON
// front end over a prepared-formula cache and the parallel sampling
// engine. Many clients hitting the same formula pay for one ApproxMC
// setup; every later request goes straight to cheap hash-constrained
// sampling rounds.
//
// Usage:
//
//	unigend -addr :8671 -cache 64 -j 4 -max-inflight 32 -timeout 30s
//
// Endpoints:
//
//	POST /sample          {"formula": "<dimacs>", "n": 10, "seed": 1}
//	                      → {"vars": [...], "witnesses": ["0101…", ...],
//	                         "cache_hit": true, "fingerprint": "…",
//	                         "trace_id": "…", "stats": {...}}
//	POST /count           {"formula": "<dimacs>"}
//	                      → {"count": "1024", "exact": false, ...}
//
// Both accept the delta request shape instead of a formula: {"base":
// "<hex fingerprint of a prepared formula>", "assumptions": [3, -7],
// ...} samples (or counts) base ∧ assumptions on pooled warm solver
// sessions over the base — no DIMACS re-parse, no solver rebuild —
// with witnesses bit-identical to posting the conjoined formula at the
// same seed. An unknown base returns 404; -pool caps idle sessions per
// base.
//
// Besides the fields shown, a body may carry "tenant", "timeout_ms" and,
// on /sample, "trace"; any other field gets 400. The worker count (-j)
// and the conflict budget (-budget) are the daemon's, not the request's.
//
//	GET  /healthz         → {"ok": true, "state": "ok"|"overloaded"|"draining",
//	                         "uptime_seconds": 12.3, "version": "…"}
//	GET  /stats           → cache, admission, outcome, delta/session-pool,
//	                        and cumulative solver-work counters
//	GET  /metrics         → Prometheus text exposition (DESIGN §10)
//	GET  /debug/requests  → recent slow/failed requests with span trees
//
// Every /sample and /count response carries an X-Unigen-Trace header;
// adding "trace": true to a /sample body echoes the request's span tree
// in the response. Logs are structured (log/slog): one record per
// finished request with request id, tenant, fingerprint, outcome, and
// duration; requests slower than -slow-request log at Warn with their
// full phase breakdown. -log-json switches the stream to JSON.
// -debug-addr starts a second listener serving net/http/pprof and a
// /metrics mirror, kept off the public port.
//
// Overload behavior: beyond -max-inflight admitted requests and a
// -max-queue wait queue, work is shed with 429 and "Retry-After: 1";
// requests exceeding the -timeout server deadline stop consuming solver
// CPU and fail with 503; bodies over -max-body get 413. SIGINT/SIGTERM
// starts a graceful drain: the listener closes, in-flight requests get
// up to -drain to finish, stragglers have their SAT searches
// interrupted.
//
// Samples for a fixed (formula, seed, n) are bit-identical to
// unigen.Sampler.SampleN and to the embedded unigen.Service — cached or
// cold, whatever -j executes the rounds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"unigen"
	"unigen/internal/obs"
)

// logger is the daemon's structured log stream. Package-level so run
// (which tests drive directly) logs through whatever main configured;
// the default matches the pre-flag behavior: human-readable text on
// stderr.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	addr := flag.String("addr", ":8671", "listen address")
	epsilon := flag.Float64("epsilon", 6, "uniformity tolerance for prepared formulas (> 1.71)")
	cache := flag.Int("cache", 64, "max prepared formulas kept (LRU)")
	storeDir := flag.String("store-dir", "", "directory for the persistent prepared-formula store (empty = off)")
	storeMax := flag.Int64("store-max-bytes", 0, "max bytes the persistent store may hold before evicting least-recently-accessed entries (0 = unlimited)")
	pool := flag.Int("pool", 0, "max idle delta sessions pooled per base formula (0 = 8)")
	jobs := flag.Int("j", 0, "sampling workers per request (0 = all CPUs, at most 64); sampling only: a preparation's ApproxMC rounds use up to GOMAXPROCS sessions, shared by all preparations")
	budget := flag.Int64("budget", 0, "conflict budget per SAT call (0 = unlimited)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently admitted requests (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for admission before shedding")
	queueWait := flag.Duration("queue-wait", 0, "max time a queued request waits for a slot (0 = 2s when gated)")
	tenantQuota := flag.Int("tenant-quota", 0, "max in-flight requests per tenant (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "server-side deadline per request (0 = none)")
	prepTimeout := flag.Duration("prepare-timeout", 0, "wall-clock cap per formula preparation (0 = none)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown deadline after SIGINT/SIGTERM")
	maxBody := flag.Int64("max-body", 0, "max HTTP request body bytes (0 = 64 MiB)")
	slowReq := flag.Duration("slow-request", 0, "latency past which a request logs at Warn with its span breakdown (0 = 1s, negative = off)")
	debugRing := flag.Int("debug-requests", 0, "recent slow/failed requests retained at /debug/requests (0 = 128)")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof and /metrics (empty = off)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: unigend [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "unigend: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, hopts))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, hopts))
	}
	slog.SetDefault(logger)

	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := unigen.ServiceOptions{
		Epsilon:        *epsilon,
		MaxConflicts:   *budget,
		Workers:        workers,
		CacheSize:      *cache,
		StoreDir:       *storeDir,
		StoreMaxBytes:  *storeMax,
		SessionPool:    *pool,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		TenantQuota:    *tenantQuota,
		DefaultTimeout: *timeout,
		PrepareTimeout: *prepTimeout,
		MaxBodyBytes:   *maxBody,
		SlowRequest:    *slowReq,
		DebugRequests:  *debugRing,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	version, goVersion := obs.BuildVersion()
	logger.Info("unigend listening",
		"addr", ln.Addr().String(),
		"version", version,
		"go", goVersion,
		"pid", os.Getpid(),
		slog.Group("config",
			"epsilon", *epsilon,
			"workers", workers,
			"cache", *cache,
			"max_inflight", *maxInFlight,
			"max_queue", *maxQueue,
			"tenant_quota", *tenantQuota,
			"timeout", timeout.String(),
			"prepare_timeout", prepTimeout.String(),
			"slow_request", slowReq.String(),
			"store_dir", *storeDir,
			"store_max_bytes", *storeMax,
		))

	if *debugAddr != "" {
		stopDebug, err := serveDebug(*debugAddr)
		if err != nil {
			logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		defer stopDebug()
	}

	if err := run(ctx, opts, ln, *timeout, *drain); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// run serves on ln until ctx is cancelled (a termination signal), then
// drains: the listener closes immediately, the service stops admitting
// work, and both the HTTP server and the sampling service get up to
// drainDeadline to finish in-flight requests — after which straggling
// SAT searches are interrupted and their requests fail with 503.
func run(ctx context.Context, opts unigen.ServiceOptions, ln net.Listener, timeout, drainDeadline time.Duration) error {
	if opts.Logger == nil {
		opts.Logger = logger
	}
	svc, err := unigen.NewService(opts)
	if err != nil {
		return err
	}
	debugSvc.Store(svc)
	defer debugSvc.Store((*unigen.Service)(nil))

	// The warm scan already ran inside NewService; report what a
	// restarted daemon can serve without re-preparing.
	if opts.StoreDir != "" {
		st := svc.Stats().Store
		logger.Info("persistent store opened",
			"dir", opts.StoreDir,
			"entries", st.Entries,
			"bytes", st.Bytes,
			"max_bytes", opts.StoreMaxBytes)
	}

	// WriteTimeout backstops the per-request deadline: a request that
	// somehow ignores its budget still cannot hold a connection forever.
	// Unbudgeted servers (timeout 0) leave it off — solver calls are
	// legitimately long.
	writeTimeout := time.Duration(0)
	if timeout > 0 {
		writeTimeout = timeout + 30*time.Second
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", "deadline", drainDeadline.String())
	dctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()

	// Drain the two layers concurrently: Shutdown closes the listener
	// and waits for HTTP handlers to return; Close stops admitting
	// requests and interrupts straggling solvers at the deadline, which
	// is what lets those handlers return.
	svcDone := make(chan error, 1)
	go func() { svcDone <- svc.Close(dctx) }()
	httpErr := srv.Shutdown(dctx)
	svcErr := <-svcDone

	// A deadline hit is a completed (if impolite) drain: stragglers were
	// interrupted and answered 503. Only transport-level failures are
	// real errors.
	if svcErr != nil {
		logger.Warn("drain deadline exceeded, in-flight solvers interrupted")
	}
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		return httpErr
	}
	return nil
}
