// Command sortinghatd serves batched feature type inference over HTTP:
// the online form of the SortingHat task, as AutoML platforms consume it.
//
// Usage:
//
//	sortinghatd -model model.gob [-addr :8080] [-workers N] [-cache 4096] [-timeout 10s]
//	sortinghatd -train-n 2000        # no saved model: train one at startup
//	sortinghatd -pprof               # also mount /debug/pprof/
//	sortinghatd -fault-spec 'predict:panic:0.1' -fault-seed 7   # chaos drills
//
// Endpoints:
//
//	POST /v1/infer       {"columns":[{"name":"age","values":["23","41"]}]}
//	POST /v1/infer/csv   text/csv body; one inferred type per column
//	POST /admin/reload   {"path":"model.gob","version":"canary"} hot model swap
//	GET  /healthz        liveness probe; "degraded" while the breaker is open
//	GET  /metrics        Prometheus text-format metrics
//	GET  /debug/traces   recent request traces as JSON span trees
//	GET  /debug/flight   flight recorder: slowest and errored recent requests
//	GET  /debug/pprof/   runtime profiles (only with -pprof)
//
// Distributed tracing: an incoming W3C traceparent header (as the
// gateway sends on every forwarded shard) makes the request's trace
// join the caller's, and a forwarded X-Request-Id is reused in the
// access log, so fleet-wide logs and traces join on one key.
// -trace-out appends every finished request trace to a JSONL file that
// cmd/tracecat can stitch, across processes, into one timeline per
// distributed trace.
//
// Model versioning: the startup model is labeled by -model-version
// (default "v1") at swap sequence 1. POST /admin/reload loads a new gob
// snapshot and swaps it in atomically — in-flight columns finish on the
// model they started with, new columns see the new one, and prediction
// cache keys carry the swap sequence so entries cached under an old
// model are never served again. /healthz and /v1/infer responses report
// the serving version. The endpoint is unauthenticated: expose it only
// on an internal network or behind an authenticating proxy.
//
// Resilience: an admission gate sheds load past -queue-depth with HTTP
// 429 + Retry-After; a circuit breaker (-breaker-failures,
// -breaker-probe) trips the ML prediction path open on consecutive
// failures, and while open columns are answered by the paper's
// rule-based baseline, tagged "degraded":true. -fault-spec injects
// deterministic faults (latency, errors, panics) at named sites for
// chaos drills; it is off by default and meant for testing only.
//
// Logs are structured JSON (log/slog), one object per line; each request
// is logged with the same request ID that appears on its trace span and
// X-Request-Id response header.
//
// The process drains in-flight requests on SIGINT/SIGTERM before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sortinghat/internal/core"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience"
	"sortinghat/internal/resilience/faultinject"
	"sortinghat/internal/serve"
	"sortinghat/internal/synth"
)

func main() {
	var (
		modelPath  = flag.String("model", "", "trained model file (gob, from `sortinghat train`)")
		modelVer   = flag.String("model-version", "", "label for the startup model in /healthz and metrics (default v1)")
		trainN     = flag.Int("train-n", 0, "no -model: train a fresh Random Forest on an N-column corpus at startup")
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "column worker pool size (default: GOMAXPROCS)")
		cacheSize  = flag.Int("cache", serve.DefaultCacheSize, "prediction cache capacity in columns (negative disables)")
		timeout    = flag.Duration("timeout", serve.DefaultTimeout, "per-request deadline (negative disables)")
		maxBatch   = flag.Int("max-batch", serve.DefaultMaxBatch, "max columns per /v1/infer request")
		drain      = flag.Duration("drain", 15*time.Second, "max time to drain in-flight requests at shutdown")
		traceRing  = flag.Int("trace-ring", obs.DefaultTraceRing, "recent request traces kept for GET /debug/traces")
		traceOut   = flag.String("trace-out", "", "append finished request traces to this JSONL file (stitch with `tracecat`)")
		flightRing = flag.Int("flight-ring", obs.DefaultFlightRing, "slowest/errored requests kept for GET /debug/flight")
		pprof      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		maxCell       = flag.Int("max-cell", serve.DefaultMaxCellBytes, "max bytes per CSV cell on /v1/infer/csv (answered with 413)")
		queueDepth    = flag.Int("queue-depth", 0, "admission-gate high-water mark in columns (default: 2*max-batch)")
		retryAfterMax = flag.Int("retry-after-max", serve.DefaultRetryAfterMax, "cap in seconds on the Retry-After hint sent with 429/504 answers")
		brkFailures   = flag.Int("breaker-failures", 0, "consecutive prediction failures that trip the breaker open (default 5)")
		brkProbe      = flag.Duration("breaker-probe", 0, "wait before an open breaker probes the ML path again (default 5s)")
		faultSpec     = flag.String("fault-spec", "", "deterministic fault injection, e.g. 'predict:panic:0.1;featurize:latency:1:20ms' (testing only)")
		faultSeed     = flag.Int64("fault-seed", 1, "seed for -fault-spec fault draws")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)

	pipe, err := loadPipeline(logger, *modelPath, *trainN)
	if err != nil {
		logger.Error("startup failed", "err", err.Error())
		os.Exit(1)
	}

	cfg := serve.Config{
		ModelVersion:  *modelVer,
		Workers:       *workers,
		CacheSize:     *cacheSize,
		Timeout:       *timeout,
		MaxBatch:      *maxBatch,
		MaxCellBytes:  *maxCell,
		QueueDepth:    *queueDepth,
		RetryAfterMax: *retryAfterMax,
		TraceRing:     *traceRing,
		FlightRing:    *flightRing,
		Logger:        logger,
		EnablePprof:   *pprof,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: *brkFailures,
			ProbeInterval:    *brkProbe,
		},
	}
	if *faultSpec != "" {
		inj, err := faultinject.Parse(*faultSpec, *faultSeed)
		if err != nil {
			logger.Error("bad -fault-spec", "err", err.Error())
			os.Exit(2)
		}
		cfg.Faults = inj // assigned only when non-nil: a typed nil would defeat the nil-injector check
		logger.Warn("fault injection enabled — testing only", "spec", inj.String(), "seed", *faultSeed)
	}
	if *traceOut != "" {
		sink, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("bad -trace-out", "err", err.Error())
			os.Exit(2)
		}
		defer sink.Close()
		cfg.TraceSink = sink // same caveat as Faults: only a non-nil *os.File may land in the interface
	}
	srv := serve.New(pipe, cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving",
		"model", pipe.Name(),
		"addr", *addr,
		"workers", *workers,
		"cache", *cacheSize,
		"timeout", timeout.String(),
		"pprof", *pprof)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight requests", "max_drain", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "err", err.Error())
	}
	srv.Close() // after Shutdown: no handler is still enqueuing columns
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err.Error())
	}
	logger.Info("stopped")
}

// loadPipeline loads a saved model, or trains a fresh default Random
// Forest when no model file is given.
func loadPipeline(logger *slog.Logger, path string, trainN int) (*core.Pipeline, error) {
	if path != "" {
		pipe, err := core.LoadFile(path)
		if err != nil {
			return nil, err
		}
		return pipe, nil
	}
	n := trainN
	if n <= 0 {
		n = synth.DefaultCorpusConfig().N
	}
	logger.Info("no -model given; training a startup Random Forest (use `sortinghat train` + -model to skip this)", "columns", n)
	start := time.Now()
	corpus := synth.GenerateCorpus(corpusConfig(n))
	pipe, err := core.Train(corpus, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("training startup model: %w", err)
	}
	logger.Info("trained", "elapsed", time.Since(start).Round(time.Millisecond).String())
	return pipe, nil
}

// corpusConfig sizes the default corpus down to n columns.
func corpusConfig(n int) synth.CorpusConfig {
	cfg := synth.DefaultCorpusConfig()
	cfg.N = n
	return cfg
}
