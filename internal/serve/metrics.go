package serve

import (
	"time"

	"sortinghat/internal/core"
	"sortinghat/internal/ml/tree"
	"sortinghat/internal/obs"
)

// metrics holds the server's handles into its obs.Registry. The registry
// renders in registration order, so the order below is the pinned
// /metrics layout (TestMetricsRenderPinned): the pre-obs series keep
// their exact names, help strings, and relative order, with the
// eviction/capacity and forest series slotted in next to their families.
type metrics struct {
	FrontMetrics

	columns         *obs.Counter // columns of admitted batches, counted at the gate
	batchSize       *obs.Summary // columns per admitted batch
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	panics          *obs.Counter // panics recovered from the hot path
	deadlineExpired *obs.Counter // columns dropped at pickup: deadline spent in queue
	degraded        *obs.Counter // columns answered by the rule fallback
	reloads         *obs.Counter // successful hot model swaps
	reloadErrors    *obs.Counter // rejected /admin/reload requests

	queueDur  *obs.Histogram // per-column admission → worker-pickup seconds
	hashDur   *obs.Histogram // per-column content-hash seconds
	cacheDur  *obs.Histogram // per-column cache-lookup seconds
	featurize *obs.Histogram // per-column base-featurization seconds
	predict   *obs.Histogram // per-column model-prediction seconds

	traversalDepth *obs.Summary // forest traversal depth, re-attached on reload
}

// newMetrics builds the server's registry. Counters and gauges the
// handlers increment directly get handles; state owned elsewhere (cache,
// config, forest) is exposed through render-time funcs so there is no
// double bookkeeping. When the pipeline's model is a Random Forest, the
// forest's structure gauges and per-tree traversal-depth summary are
// registered too, and the forest's observability sink is attached.
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{FrontMetrics: FrontMetrics{Reg: reg}}
	m.Requests = reg.Counter("sortinghatd_requests_total", "Completed /v1/infer requests.")
	m.RequestErrors = reg.Counter("sortinghatd_request_errors_total", "Rejected /v1/infer requests (malformed or oversized batches).")
	m.RequestTimeouts = reg.Counter("sortinghatd_request_timeouts_total", "/v1/infer requests that exceeded their deadline.")
	m.Inflight = reg.Gauge("sortinghatd_inflight_requests", "Requests currently being served.")
	m.columns = reg.Counter("sortinghatd_columns_total", "Columns received across all accepted batches.")
	m.cacheHits = reg.Counter("sortinghatd_cache_hits_total", "Columns answered from the prediction cache.")
	m.cacheMisses = reg.Counter("sortinghatd_cache_misses_total", "Columns that required featurization and prediction.")
	reg.CounterFunc("sortinghatd_cache_evictions_total", "Cache entries evicted to make room (LRU).", s.cache.evicted)
	reg.GaugeFunc("sortinghatd_cache_entries", "Entries currently in the prediction cache.", func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("sortinghatd_cache_capacity", "Configured prediction cache capacity in columns.", func() float64 { return float64(s.cache.capacity()) })
	reg.GaugeFunc("sortinghatd_workers", "Size of the column worker pool.", func() float64 { return float64(s.cfg.Workers) })
	m.panics = reg.Counter("sortinghatd_panic_recovered_total", "Panics recovered from the per-column hot path (featurize/predict).")
	m.degraded = reg.Counter("sortinghatd_degraded_total", "Columns answered by the rule-based fallback instead of the ML model.")
	reg.CounterFunc("sortinghatd_shed_total", "Requests fast-failed by the admission gate (HTTP 429).", s.gate.Shed)
	reg.GaugeFunc("sortinghatd_queue_depth", "Columns admitted and not yet picked up by a worker.", func() float64 { return float64(s.gate.Depth()) })
	reg.GaugeFunc("sortinghatd_queue_high_water", "Admission-gate high-water mark in columns.", func() float64 { return float64(s.gate.Capacity()) })
	m.deadlineExpired = reg.Counter("sortinghatd_deadline_expired_in_queue_total", "Columns dropped at worker pickup because their deadline expired while queued (never featurized).")
	reg.GaugeFunc("sortinghatd_breaker_state", "Prediction circuit breaker state (0 closed, 1 open, 2 half-open).", func() float64 { return float64(s.breaker.State()) })
	reg.CounterFunc("sortinghatd_breaker_open_total", "Times the prediction circuit breaker tripped open.", s.breaker.Opened)
	reg.CounterFunc("sortinghatd_faults_injected_total", "Faults fired by the injector (-fault-spec; 0 in production).", s.faultsFired)
	m.reloads = reg.Counter("sortinghatd_model_reloads_total", "Hot model swaps applied via Reload / POST /admin/reload.")
	m.reloadErrors = reg.Counter("sortinghatd_model_reload_errors_total", "Rejected /admin/reload requests (bad body or unloadable model).")
	reg.GaugeFunc("sortinghatd_model_seq", "Monotonic model swap sequence number (1 = the startup model).", func() float64 { return float64(s.current().seq) })
	reg.GaugeFunc("sortinghatd_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(s.start).Seconds() })
	m.batchSize = reg.Summary("sortinghatd_batch_columns", "Columns per /v1/infer request.")
	m.Decode = reg.Histogram("sortinghatd_decode_seconds", "Per-request body read and decode latency (JSON or CSV).")
	m.queueDur = reg.Histogram("sortinghatd_queue_seconds", "Per-column wait between admission and worker pickup.")
	m.hashDur = reg.Histogram("sortinghatd_hash_seconds", "Per-column content hash latency (the cache key's column hash).")
	m.cacheDur = reg.Histogram("sortinghatd_cache_seconds", "Per-column prediction cache lookup latency.")
	m.featurize = reg.Histogram("sortinghatd_featurize_seconds", "Per-column base featurization latency.")
	m.predict = reg.Histogram("sortinghatd_predict_seconds", "Per-column model prediction latency.")
	m.Encode = reg.Histogram("sortinghatd_encode_seconds", "Per-request latency of encoding and writing the 200 response body.")
	m.Request = reg.Histogram("sortinghatd_request_seconds", "End-to-end /v1/infer latency.")
	m.registerForest(s)
	reg.RuntimeMetrics("sortinghatd")
	return m
}

// faultsFired samples the configured injector's lifetime fire count, or
// 0 when no injector is configured (the production case).
func (s *Server) faultsFired() int64 {
	f, ok := s.faults.(interface{ Fired() int64 })
	if !ok {
		return 0
	}
	return f.Fired()
}

// registerForest attaches the forest's structure gauges and traversal
// summary when the startup pipeline's model is a Random Forest. The
// gauges sample whichever model is serving at scrape time (nil-safe, so a
// reload to a non-forest model reads 0), and Reload re-attaches the
// traversal summary to the incoming forest via attachForest.
func (m *metrics) registerForest(s *Server) {
	reg := m.Reg
	if s.current().pipe.Forest == nil {
		return
	}
	forestGauge := func(name, help string, read func(f *tree.Forest) int) {
		reg.GaugeFunc(name, help, func() float64 {
			if f := s.current().pipe.Forest; f != nil {
				return float64(read(f))
			}
			return 0
		})
	}
	forestGauge("sortinghatd_forest_split_nodes", "Internal (split) nodes across the forest's fitted trees — the training split count.", (*tree.Forest).SplitNodes)
	forestGauge("sortinghatd_forest_leaf_nodes", "Leaf nodes across the forest's fitted trees.", (*tree.Forest).LeafNodes)
	forestGauge("sortinghatd_forest_max_depth", "Depth of the deepest fitted tree (root = 0).", (*tree.Forest).MaxTreeDepth)
	m.traversalDepth = reg.Summary("sortinghatd_forest_traversal_depth", "Per-tree traversal depth of forest predictions.")
	m.attachForest(s.current().pipe)
}

// attachForest points the incoming pipeline's forest (if any) at the
// registered traversal-depth summary, so a reloaded forest keeps feeding
// the same series. A no-op when the startup model had no forest (the
// summary was never registered) or the new model has none.
func (m *metrics) attachForest(pipe *core.Pipeline) {
	if m.traversalDepth == nil || pipe.Forest == nil {
		return
	}
	pipe.Forest.SetObs(&tree.Metrics{TraversalDepth: m.traversalDepth})
}
