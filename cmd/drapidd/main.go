// Command drapidd serves the D-RAPID engine over HTTP: submit
// identification jobs, watch their progress, stream their candidates as
// NDJSON, and classify candidates against a persisted model — the
// trained-model serving workflow the public drapid API exists for.
//
// Usage:
//
//	drapidd -addr :8422 -workers 8 -executors 10 -model rf.model.json
//
// Cluster mode (DESIGN.md §9): one coordinator daemon fans sharded
// detect jobs out over worker daemons —
//
//	drapidd -worker -addr :8423                 # a worker (repeat per host)
//	drapidd -addr :8422 -fleet http://hostA:8423,http://hostB:8423 \
//	        -journal /var/lib/drapidd/journal   # the coordinator
//
// Observability (DESIGN.md §10): GET /metrics serves the engine's
// registry in Prometheus text format on the public address; -debug-addr
// opens a second, private listener carrying /debug/pprof/* (never
// mounted publicly) plus a /metrics alias. -log-format json switches the
// structured request/job logs from prefixed text to JSON lines.
//
// API (see DESIGN.md §4.5). A job body is the job spec's own JSON form,
// the document the journal also holds (DESIGN.md §5.4); a name the spec
// does not have is a 400:
//
//	POST /v1/jobs                 drapid.IdentifyJob as JSON ({"data": [...], "clusters": [...]}) → {"id": ...}
//	POST /v1/detect               drapid.DetectJob as JSON (filterbank base64 or synth spec)
//	POST /v1/detect/stream        raw SIGPROC body in, NDJSON candidates out (DESIGN.md §7);
//	                              DetectJob's scalar search knobs as query parameters,
//	                              with block (BlockSamples) and top (Sift.Top)
//	GET  /v1/jobs/{id}            progress
//	GET  /v1/jobs/{id}/candidates NDJSON stream of identified pulses
//	POST /v1/jobs/{id}/cancel     cancel
//	POST /v1/classify             {"instances": [[...22 features...]]}
//	GET|POST /v1/models           inspect / load the serving model
//	GET  /metrics                 Prometheus text exposition
//	GET  /readyz                  readiness + fleet state
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drapid"
	"drapid/internal/fleet"
	"drapid/internal/obs"
	"drapid/internal/rdd"
)

func main() {
	var (
		addr       = flag.String("addr", ":8422", "listen address")
		workers    = flag.Int("workers", 0, "host worker goroutines shared by all jobs (0 = all cores)")
		executors  = flag.Int("executors", 10, "simulated Spark executors per job (paper testbed max: 22)")
		simClock   = flag.Bool("simclock", false, "maintain the simulated cluster clock per job")
		partsCore  = flag.Int("partitions", 32, "default hash partitions per core")
		modelPath  = flag.String("model", "", "drapid-model/v1 JSON to serve /v1/classify from (optional)")
		workerMode = flag.Bool("worker", false, "run as a fleet worker: serve the shard protocol instead of the jobs API")
		blobCache  = flag.Int("blob-cache", 0, "worker blob-cache bound in MiB for content-addressed observations (0 = 256)")
		fleetURLs  = flag.String("fleet", "", "comma-separated worker base URLs to coordinate sharded detect jobs over")
		fleetLocal = flag.Int("fleet-local", 0, "in-process fleet workers (single-host sharding; mixes with -fleet)")
		journalDir = flag.String("journal", "", "directory to journal queued/running jobs in; replayed on restart")
		drainWait  = flag.Duration("drain", 30*time.Second, "graceful-shutdown bound: how long SIGTERM waits for in-flight jobs and streams")
		debugAddr  = flag.String("debug-addr", "", "private listen address for /debug/pprof and /metrics (empty = no debug listener)")
		logFormat  = flag.String("log-format", "text", "log format: text (prefixed key=value lines) or json")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drapidd:", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *workerMode {
		if err := runWorker(*addr, *debugAddr, *workers, *blobCache, *drainWait, logger); err != nil {
			fatal("worker failed", "err", err)
		}
		return
	}

	opts := []drapid.Option{
		drapid.WithWorkers(*workers),
		drapid.WithExecutors(*executors),
		drapid.WithSimClock(*simClock),
		drapid.WithPartitionsPerCore(*partsCore),
		drapid.WithLogger(logger),
	}
	if *fleetLocal > 0 {
		opts = append(opts, drapid.WithFleetWorkers(*fleetLocal))
	}
	if *fleetURLs != "" {
		opts = append(opts, drapid.WithRemoteWorkers(strings.Split(*fleetURLs, ",")...))
	}
	if *journalDir != "" {
		opts = append(opts, drapid.WithJournalDir(*journalDir))
	}
	engine, err := drapid.New(opts...)
	if err != nil {
		fatal("starting engine", "err", err)
	}
	defer engine.Close()

	if *journalDir != "" {
		recovered, err := engine.Recover(context.Background())
		if err != nil {
			fatal("replaying journal", "err", err)
		}
		for _, j := range recovered {
			logger.Info("recovered job from journal", "job", j.ID())
		}
	}

	var model *drapid.Classifier
	if *modelPath != "" {
		model, err = drapid.LoadClassifierFile(*modelPath)
		if err != nil {
			fatal("loading model", "err", err)
		}
		logger.Info("serving model",
			"learner", model.Learner(), "features", len(model.Features()), "classes", fmt.Sprint(model.Classes()))
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr, engine.MetricsRegistry(), logger)
	}

	sv := newServer(engine, model)
	sv.log = logger
	srv := &http.Server{
		Addr:    *addr,
		Handler: sv.handler(),
		// No WriteTimeout: the candidate stream is long-lived by design.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
	}
	// Graceful shutdown on SIGINT/SIGTERM: stop accepting jobs, let
	// in-flight jobs and their NDJSON streams drain within the -drain
	// bound, then close the listener (Shutdown waits for active handlers,
	// which is what drains the streams). ListenAndServe returns as soon as
	// Shutdown starts, so the process waits for it before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		logger.Info("shutdown: draining in-flight jobs", "bound", drainWait.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := engine.Drain(drainCtx); err != nil {
			logger.Warn("shutdown: drain incomplete", "err", err)
		}
		shutdownCtx, cancel2 := context.WithTimeout(context.Background(), *drainWait)
		defer cancel2()
		srv.Shutdown(shutdownCtx)
	}()

	if fs := engine.FleetStatus(); fs.Enabled {
		logger.Info("fleet configured", "workers", fs.WorkersKnown)
	}
	logger.Info("listening", "addr", *addr, "workers", engine.Workers(), "executors", *executors)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("server failed", "err", err)
	}
	<-drained
}

// newLogger builds the process logger: JSON lines, or key=value text
// with the traditional "drapidd: " line prefix.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(&prefixWriter{w: os.Stderr, prefix: "drapidd: "}, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// prefixWriter prepends a fixed prefix to every write. slog handlers
// emit exactly one Write per record, so per-write prefixing is per-line
// prefixing — the old log.SetPrefix behaviour under structured logging.
type prefixWriter struct {
	w      *os.File
	prefix string
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	if _, err := p.w.WriteString(p.prefix); err != nil {
		return 0, err
	}
	return p.w.Write(b)
}

// serveDebug runs the private debug listener: /debug/pprof/* (this file
// is the only place in the tree that touches net/http/pprof, keeping
// profiling off the public mux by construction — CI greps for exactly
// that) and a /metrics alias so one private port carries both.
func serveDebug(addr string, reg *obs.Registry, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", obs.Handler(reg))
	logger.Info("debug listener", "addr", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("debug listener failed", "err", err)
	}
}

// runWorker serves the fleet shard protocol (GET /v1/shard/ping,
// HEAD/PUT /v1/blob/{digest}, POST /v1/shard) plus /healthz and
// /metrics: the whole of a worker daemon. A worker holds only state
// derived from content — the blob cache, re-uploadable by any
// coordinator, and the staging of the last observation it searched — so
// workers need no journal and no drain: SIGTERM lets
// in-flight shard requests finish within the drain bound and the
// coordinator resubmits anything cut off.
func runWorker(addr, debugAddr string, workers, blobCacheMiB int, drainWait time.Duration, logger *slog.Logger) error {
	exec := rdd.ExecConfig{Workers: workers}
	exec.Limiter = rdd.NewLimiter(exec.NumWorkers())
	cache := fleet.NewBlobCache(int64(blobCacheMiB)<<20, obs.Default)
	handler := fleet.NewHandler(exec, cache)
	mux := http.NewServeMux()
	mux.Handle("/v1/shard", handler)
	mux.Handle("/v1/shard/", handler)
	mux.Handle("/v1/blob/", handler)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	// Workers record shard service metrics into the process-global
	// registry (fleet.Handler); serve it so each worker is scrapeable.
	mux.Handle("GET /metrics", obs.Handler(obs.Default))
	if debugAddr != "" {
		go serveDebug(debugAddr, obs.Default, logger)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           obs.Instrument(mux, obs.Default, logger, workerRoute),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	logger.Info("worker listening", "addr", addr, "workers", exec.NumWorkers())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	return nil
}

// workerRoute normalises worker request paths into a bounded label set
// (blob paths embed a digest, so they collapse to one label).
func workerRoute(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/shard", "/v1/shard/ping", "/healthz", "/metrics":
		return r.URL.Path
	}
	if strings.HasPrefix(r.URL.Path, "/v1/blob/") {
		return "/v1/blob/{digest}"
	}
	return "other"
}
