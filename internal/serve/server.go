package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/featurize"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience"
	"sortinghat/internal/resilience/rulefallback"
)

// Injector is the fault-site hook threaded through the serving hot path.
// The server visits the sites "featurize" and "predict" once per uncached
// column; an injector may sleep (latency fault), return an error (the
// column degrades to the rule fallback) or panic (recovered by the
// worker's panic isolation). Production configurations leave it nil;
// faultinject.Injector implements it behind sortinghatd's -fault-spec.
type Injector interface {
	Inject(site string) error
}

// Config tunes a Server. The zero value picks sensible defaults; negative
// values disable the corresponding feature where documented.
type Config struct {
	// Workers is the size of the column worker pool shared by all
	// requests. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize is the LRU capacity in columns. 0 means DefaultCacheSize;
	// negative disables caching entirely.
	CacheSize int
	// Timeout is the per-request deadline applied on top of whatever
	// deadline the caller's context already carries. 0 means
	// DefaultTimeout; negative disables the server-side deadline (the
	// admission gate still bounds enqueueing, so a deadline-less caller
	// can shed but never block forever on a full queue).
	Timeout time.Duration
	// MaxBatch caps the number of columns per request. 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// QueueDepth is the admission-gate high-water mark: the number of
	// columns that may be admitted and not yet picked up by a worker
	// before further requests are shed with resilience.ErrOverloaded
	// (HTTP 429). 0 means 2*MaxBatch. It is also the task channel's
	// capacity, so an admitted batch never blocks on enqueue.
	QueueDepth int
	// MaxCellBytes caps individual cell sizes on the CSV ingestion
	// endpoint (HTTP 413 beyond it). 0 means DefaultMaxCellBytes.
	MaxCellBytes int
	// RetryAfterMax caps the Retry-After hint (in seconds) sent with 429
	// and deadline 504 responses; the hint scales linearly with live
	// queue fullness from 1 up to this cap. 0 means DefaultRetryAfterMax.
	RetryAfterMax int
	// Breaker tunes the circuit breaker guarding model prediction; the
	// zero value takes the resilience package defaults.
	Breaker resilience.BreakerConfig
	// Faults, when non-nil, is consulted at every fault site on the hot
	// path. Only chaos tests and -fault-spec set it.
	Faults Injector
	// ModelVersion is the operator-visible label of the startup model
	// (the -model-version flag of cmd/sortinghatd). Empty means "v1".
	// Subsequent versions arrive via Reload / POST /admin/reload.
	ModelVersion string
	// TraceRing caps how many recent finished request traces are kept in
	// memory for GET /debug/traces. 0 means obs.DefaultTraceRing.
	TraceRing int
	// TraceSink, when non-nil, receives every finished request trace as
	// one JSON line (JSONL) carrying the full trace/span identity — the
	// stream cmd/tracecat stitches across the fleet. See the -trace-out
	// flag of cmd/sortinghatd.
	TraceSink io.Writer
	// FlightRing caps each ring of the flight recorder behind
	// GET /debug/flight (slowest and errored requests are separate rings
	// of this size). 0 means obs.DefaultFlightRing.
	FlightRing int
	// Logger, when non-nil, receives one structured access-log record
	// per HTTP request, carrying the request ID that also appears on the
	// request's trace span and X-Request-Id response header.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's Handler. Off by default; see the -pprof flag of
	// cmd/sortinghatd.
	EnablePprof bool
}

// Defaults for the zero Config.
const (
	DefaultCacheSize     = 4096
	DefaultTimeout       = 10 * time.Second
	DefaultMaxBatch      = 1024
	DefaultMaxCellBytes  = 1 << 20
	DefaultRetryAfterMax = 8
)

// normalized fills in the documented defaults.
func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxBatch
	}
	if c.MaxCellBytes <= 0 {
		c.MaxCellBytes = DefaultMaxCellBytes
	}
	if c.RetryAfterMax <= 0 {
		c.RetryAfterMax = DefaultRetryAfterMax
	}
	return c
}

// modelState is one immutable (pipeline, version) pair. The server holds
// the current one behind an atomic pointer so a hot reload swaps the
// whole pair in a single store: a worker that loads the pointer once per
// column can never observe a torn model — it predicts with exactly the
// pipeline whose sequence number it keys the cache under.
type modelState struct {
	pipe    *core.Pipeline
	version string // operator-visible label, e.g. "v1" or "canary-42"
	seq     uint64 // monotonic swap counter, mixed into every cache key
}

// Server serves batched feature type inference over a trained pipeline.
// Create one with New and release its worker pool with Close. All methods
// are safe for concurrent use.
type Server struct {
	model    atomic.Pointer[modelState]
	modelSeq atomic.Uint64

	cfg     Config
	cache   *predCache
	met     *metrics
	front   *Front
	logger  *slog.Logger
	gate    *resilience.Gate
	breaker *resilience.Breaker
	faults  Injector
	start   time.Time

	tasks    chan task
	workerWG sync.WaitGroup

	// closeMu guards closed: enqueue holds it shared so Close cannot
	// close(tasks) between the closed check and the channel send.
	closeMu sync.RWMutex
	closed  bool
}

// task is one column of one request, processed by the worker pool.
type task struct {
	ctx  context.Context
	col  *data.Column
	out  *Result
	done *sync.WaitGroup
	enq  time.Time // when the column was admitted (queue-phase start)
}

// Result is the prediction for one column of a batch.
type Result struct {
	Name       string
	Type       ftype.FeatureType
	Confidence float64
	Probs      []float64 // per-class probabilities, indexed by class index; read-only
	CacheHit   bool
	// Degraded marks answers from the rule-based fallback (ML path
	// faulted, panicked, or breaker open) instead of the model.
	Degraded bool
	// Err carries the per-column failure that forced degradation, if any
	// (a breaker-open rejection degrades with an empty Err).
	Err string
}

// New starts a Server over a trained pipeline. The worker pool spins up
// immediately; call Close when done.
func New(pipe *core.Pipeline, cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:    cfg,
		cache:  newPredCache(cfg.CacheSize),
		logger: cfg.Logger,
		gate:   resilience.NewGate(cfg.QueueDepth),
		faults: cfg.Faults,
		start:  time.Now(),
		tasks:  make(chan task, cfg.QueueDepth),
	}
	version := cfg.ModelVersion
	if version == "" {
		version = "v1"
	}
	s.model.Store(&modelState{pipe: pipe, version: version, seq: s.modelSeq.Add(1)})
	bcfg := cfg.Breaker
	userTransition := bcfg.OnTransition
	bcfg.OnTransition = func(from, to resilience.State) {
		if s.logger != nil {
			s.logger.Warn("breaker transition", "from", from.String(), "to", to.String())
		}
		if userTransition != nil {
			userTransition(from, to)
		}
	}
	s.breaker = resilience.NewBreaker(bcfg)
	s.met = newMetrics(s)
	s.front = &Front{
		Span:          "infer",
		IDPrefix:      "req-",
		MaxBatch:      cfg.MaxBatch,
		MaxCellBytes:  cfg.MaxCellBytes,
		Gate:          s.gate,
		RetryAfterMax: cfg.RetryAfterMax,
		Met:           &s.met.FrontMetrics,
		Tracer:        obs.NewTracer(cfg.TraceRing),
		Flight:        obs.NewFlightRecorder(cfg.FlightRing),
		Logger:        cfg.Logger,
		EnablePprof:   cfg.EnablePprof,
		Infer:         s.infer,
		Health:        s.health,
	}
	s.front.Tracer.SetSink(cfg.TraceSink)
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// current returns the model state serving right now. Callers that need a
// consistent (pipeline, version) pair must call it once and keep the
// returned pointer, never call it twice mid-operation.
func (s *Server) current() *modelState {
	return s.model.Load()
}

// Reload hot-swaps the serving model with zero downtime: requests in
// flight finish on whichever model they loaded, new columns predict with
// pipe, and the prediction cache is version-keyed so no entry computed by
// the old model is ever served again (the swapped-out entries are also
// purged to reclaim memory early). version is the operator-visible label
// for the new model; empty derives "v<seq>" from the swap sequence
// number. It returns the previous and installed version labels, the
// installed swap sequence number, and the number of purged cache
// entries. Safe to call concurrently with inference; concurrent Reload
// calls serialize only on the atomic swap (last store wins).
func (s *Server) Reload(pipe *core.Pipeline, version string) (prevVersion, newVersion string, seq uint64, purged int) {
	seq = s.modelSeq.Add(1)
	if version == "" {
		version = "v" + strconv.FormatUint(seq, 10)
	}
	prev := s.current()
	s.met.attachForest(pipe)
	s.model.Store(&modelState{pipe: pipe, version: version, seq: seq})
	purged = s.cache.purge()
	s.met.reloads.Add(1)
	if s.logger != nil {
		s.logger.Info("model reloaded",
			"model", pipe.Name(),
			"version", version,
			"previous_version", prev.version,
			"seq", seq,
			"cache_purged", purged)
	}
	return prev.version, version, seq, purged
}

// Close stops the worker pool and waits for in-flight column tasks to
// finish. Shut the HTTP server down first (http.Server.Shutdown) so no
// request is still enqueuing; InferBatch returns ErrServerClosed for
// batches that arrive later.
func (s *Server) Close() {
	s.closeMu.Lock()
	already := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if already {
		return
	}
	close(s.tasks)
	s.workerWG.Wait()
}

// ErrServerClosed is returned by InferBatch after Close.
var ErrServerClosed = fmt.Errorf("serve: server closed")

// worker processes column tasks until the task channel is closed. Each
// received task immediately releases its admission-gate reservation: the
// gate bounds queued (not in-flight) columns.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		s.gate.Release(1)
		s.process(t)
	}
}

// process runs the per-column hot path: cache lookup, base featurization,
// model prediction, cache fill. Featurize and predict run panic-isolated
// (guard), so one poisoned column degrades to the rule fallback instead
// of killing the process, and prediction sits behind the circuit breaker.
// It writes only *t.out (ownership by index; see the package comment) and
// always releases t.done. When the request carries a trace span, the
// column and its featurize/predict stages become child spans
// (obs.StartSpan is a no-op otherwise).
//
//shvet:hotpath worker-pool body; every inferred column passes through here via the task channel
func (s *Server) process(t task) {
	defer t.done.Done()
	if err := t.ctx.Err(); err != nil {
		// Request already abandoned; don't burn the pool on it. Sentinel
		// compare (not errors.Is): context returns exactly this value, and
		// the check must stay allocation-free on the hot path.
		if err == context.DeadlineExceeded {
			s.met.deadlineExpired.Add(1)
			phasesFrom(t.ctx).addExpired()
		}
		return
	}
	t.out.Name = t.col.Name

	acc := phasesFrom(t.ctx)
	qd := time.Since(t.enq)
	s.met.queueDur.Observe(qd.Seconds())
	acc.addQueue(qd)

	ctx, colSpan := obs.StartSpan(t.ctx, "column")
	colSpan.SetAttr("column", t.col.Name)
	defer colSpan.End()

	// One atomic load pins this column to a single (pipeline, seq) pair:
	// the prediction below and the cache key agree on the model version
	// even when Reload swaps the pointer mid-column.
	m := s.current()
	hStart := time.Now()
	key := versionedKey{seq: m.seq, key: columnKey(t.col)}
	cStart := time.Now()
	hd := cStart.Sub(hStart)
	s.met.hashDur.Observe(hd.Seconds())
	acc.addHash(hd)
	hit, ok := s.cache.get(key)
	cd := time.Since(cStart)
	s.met.cacheDur.Observe(cd.Seconds())
	acc.addCache(cd)
	if ok {
		s.met.cacheHits.Add(1)
		colSpan.SetAttr("cache", "hit")
		t.out.Type = hit.Type
		t.out.Probs = hit.Probs
		t.out.Confidence = confidenceOf(hit.Type, hit.Probs)
		t.out.CacheHit = true
		return
	}
	s.met.cacheMisses.Add(1)
	colSpan.SetAttr("cache", "miss")

	var base featurize.Base
	fStart := time.Now()
	_, fSpan := obs.StartSpan(ctx, "featurize")
	fErr := s.guard("featurize", func() error {
		if err := s.inject("featurize"); err != nil {
			return err
		}
		base = featurize.ExtractFirstN(t.col, featurize.SampleCount)
		return nil
	})
	fSpan.End()
	if fErr != nil {
		// Without stats the fallback's no-signal rule answers
		// Not-Generalizable — still a valid class, so the batch survives.
		base = featurize.Base{Name: t.col.Name}
		s.degrade(t.out, &base, fErr.Error(), "featurize-error", colSpan)
		return
	}
	fd := time.Since(fStart)
	s.met.featurize.Observe(fd.Seconds())
	acc.addFeaturize(fd)

	if !s.breaker.Allow() {
		s.degrade(t.out, &base, "", "breaker-open", colSpan)
		return
	}

	var (
		typ   ftype.FeatureType
		probs []float64
	)
	pStart := time.Now()
	_, pSpan := obs.StartSpan(ctx, "predict")
	pErr := s.guard("predict", func() error {
		if err := s.inject("predict"); err != nil {
			return err
		}
		typ, probs = m.pipe.PredictBase(&base)
		return nil
	})
	pSpan.End()
	if pErr != nil {
		s.breaker.Failure()
		s.degrade(t.out, &base, pErr.Error(), "predict-error", colSpan)
		return
	}
	s.breaker.Success()
	pd := time.Since(pStart)
	s.met.predict.Observe(pd.Seconds())
	acc.addPredict(pd)

	s.cache.put(key, cachedPrediction{Type: typ, Probs: probs})
	t.out.Type = typ
	t.out.Probs = probs
	t.out.Confidence = confidenceOf(typ, probs)
}

// guard runs fn with panic isolation: a panic from the hot path is
// recovered, counted, logged with its stack, and returned as the column's
// error, so one poisoned column cannot take down the process.
func (s *Server) guard(site string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.met.panics.Add(1)
			if s.logger != nil {
				s.logger.Error("panic recovered",
					"site", site,
					"panic", fmt.Sprint(r),
					"stack", string(debug.Stack()))
			}
			err = fmt.Errorf("serve: panic in %s: %v", site, r)
		}
	}()
	return fn()
}

// inject visits a fault site when an injector is configured.
func (s *Server) inject(site string) error {
	if s.faults == nil {
		return nil
	}
	return s.faults.Inject(site)
}

// degrade answers a column from the rule-based fallback instead of the
// ML path, tagging the result so callers can tell. Degraded answers are
// never cached: once the ML path recovers, the same column must get a
// model answer again.
func (s *Server) degrade(out *Result, base *featurize.Base, errMsg, reason string, span *obs.Span) {
	typ, probs := rulefallback.Classify(base)
	out.Type = typ
	out.Probs = probs
	out.Confidence = confidenceOf(typ, probs)
	out.Degraded = true
	out.Err = errMsg
	s.met.degraded.Add(1)
	span.SetAttr("degraded", reason)
	if errMsg != "" {
		span.SetAttr("error", errMsg)
	}
}

// confidenceOf picks the predicted class's probability out of probs.
func confidenceOf(t ftype.FeatureType, probs []float64) float64 {
	if i := t.Index(); i >= 0 && i < len(probs) {
		return probs[i]
	}
	return 0
}

// Degraded reports whether the server is currently answering from the
// rule fallback because the prediction breaker is not closed. /healthz
// mirrors this as status "degraded".
func (s *Server) Degraded() bool {
	return s.breaker.State() != resilience.Closed
}

// InferBatch classifies a batch of raw columns, fanning featurization and
// prediction out across the worker pool. Results are index-aligned with
// cols. The whole batch is admitted through the load-shedding gate up
// front: when admitting it would push the queue past Config.QueueDepth,
// InferBatch fails fast with an error wrapping resilience.ErrOverloaded
// instead of blocking — including when Timeout is negative and the
// caller's context has no deadline, a configuration that previously could
// block forever on a full queue. An admitted batch counts in
// sortinghatd_columns_total and sortinghatd_batch_columns. It returns
// ctx.Err() (or context.DeadlineExceeded from the server-side timeout)
// when the deadline expires before the batch completes, and
// ErrServerClosed after Close. Columns whose ML path fails come back with Degraded set rather
// than failing the batch.
func (s *Server) InferBatch(ctx context.Context, cols []data.Column) ([]Result, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("serve: empty batch")
	}
	if len(cols) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d columns exceeds limit %d", len(cols), s.cfg.MaxBatch)
	}
	if err := s.gate.TryReserve(len(cols)); err != nil {
		return nil, fmt.Errorf("serve: %d columns queued of %d high water: %w",
			s.gate.Depth(), s.gate.Capacity(), err)
	}
	s.met.columns.Add(int64(len(cols)))
	s.met.batchSize.Observe(float64(len(cols)))
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	results := make([]Result, len(cols))
	//shvet:ignore nondet-flow queue-wait timestamps feed the latency histograms only; inference results never depend on them
	enq := time.Now()
	var pending sync.WaitGroup
	for i := range cols {
		pending.Add(1)
		if err := s.enqueue(task{ctx: ctx, col: &cols[i], out: &results[i], done: &pending, enq: enq}); err != nil {
			pending.Done()
			// Hand back the reservations of the columns never enqueued
			// (workers release the queued ones as they drain them). Tasks
			// already queued keep their slots in results; nobody reads the
			// slice after an error return, so abandoning it is safe
			// (workers hold the only remaining references).
			s.gate.Release(len(cols) - i)
			return nil, err
		}
	}

	done := make(chan struct{})
	go func() { pending.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		// The batch finished but the deadline passed meanwhile; report
		// the timeout rather than hand back results the caller will
		// treat as on-time.
		return nil, err
	}
	return results, nil
}

// enqueue submits one task, failing fast when the server is closed. The
// admission gate reserved room for the task up front and the channel's
// capacity equals the gate's high-water mark, so the send cannot block on
// a full queue; the ctx arm only covers requests cancelled mid-enqueue.
func (s *Server) enqueue(t task) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrServerClosed
	}
	// Holding the read lock across the send is the point: Close takes the
	// write lock before closing s.tasks, so a send can never race the
	// close, and ctx.Done bounds how long the lock is held.
	//shvet:ignore lock-balance read lock intentionally held across the send to fence against Close closing s.tasks mid-send
	select {
	case s.tasks <- t:
		return nil
	case <-t.ctx.Done():
		return t.ctx.Err()
	}
}
