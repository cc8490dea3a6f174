package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/obs"
	"sortinghat/internal/synth"
)

// testPipeline trains one small Random Forest per test binary; every test
// shares it read-only (prediction is concurrency-safe).
var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeErr  error
)

func testModel(t testing.TB) *core.Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		cfg := synth.DefaultCorpusConfig()
		cfg.N = 400
		opts := core.DefaultOptions()
		opts.RFTrees, opts.RFDepth = 10, 15
		pipe, pipeErr = core.Train(synth.GenerateCorpus(cfg), opts)
	})
	if pipeErr != nil {
		t.Fatalf("training test model: %v", pipeErr)
	}
	return pipe
}

// testBatch builds an n-column batch of deterministic synthetic columns.
func testBatch(n int) InferRequest {
	req := InferRequest{Columns: make([]InferColumn, n)}
	for i := range req.Columns {
		vals := make([]string, 48)
		for j := range vals {
			switch i % 3 {
			case 0:
				vals[j] = fmt.Sprintf("%d.%02d", j*7+i, j%100) // numeric-ish
			case 1:
				vals[j] = fmt.Sprintf("cat_%d", j%5) // categorical-ish
			default:
				vals[j] = fmt.Sprintf("2021-0%d-1%d", j%9+1, j%9) // datetime-ish
			}
		}
		req.Columns[i] = InferColumn{Name: fmt.Sprintf("col_%d", i), Values: vals}
	}
	return req
}

// injectFunc adapts a function to the fault-site Injector interface, the
// test-side replacement for reaching into server internals: faults enter
// through the same seam production chaos drills use.
type injectFunc func(site string) error

func (f injectFunc) Inject(site string) error { return f(site) }

// slowSite returns an injector that sleeps d at the named site.
func slowSite(site string, d time.Duration) Injector {
	return injectFunc(func(s string) error {
		if s == site {
			time.Sleep(d)
		}
		return nil
	})
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(testModel(t), cfg)
	t.Cleanup(s.Close)
	return s
}

func postInfer(t *testing.T, h http.Handler, req InferRequest) (*httptest.ResponseRecorder, InferResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	var resp InferResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v\nbody: %s", err, rec.Body.Bytes())
		}
	}
	return rec, resp
}

// TestInfer64ColumnBatch serves a full 64-column table end-to-end and
// checks the response shape: aligned names, valid types, probabilities
// that sum to ~1 with the confidence matching the argmax entry.
func TestInfer64ColumnBatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	rec, resp := postInfer(t, s.Handler(), testBatch(64))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if len(resp.Predictions) != 64 {
		t.Fatalf("got %d predictions, want 64", len(resp.Predictions))
	}
	if resp.Model != "OurRF" {
		t.Errorf("model = %q, want OurRF", resp.Model)
	}
	for i, p := range resp.Predictions {
		if want := fmt.Sprintf("col_%d", i); p.Name != want {
			t.Fatalf("prediction %d: name %q, want %q (results must stay index-aligned)", i, p.Name, want)
		}
		if len(p.Probs) == 0 {
			t.Fatalf("prediction %d: empty probs", i)
		}
		sum, best := 0.0, 0.0
		for _, v := range p.Probs {
			sum += v
			if v > best {
				best = v
			}
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("prediction %d: probs sum to %g, want ~1", i, sum)
		}
		if diff := p.Confidence - best; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("prediction %d: confidence %g != max prob %g", i, p.Confidence, best)
		}
		if _, ok := p.Probs[p.Type]; !ok {
			t.Errorf("prediction %d: predicted type %q missing from probs", i, p.Type)
		}
	}
}

// TestInferMatchesPipeline pins the serving path to the library path: the
// server must return exactly what Pipeline.Predict returns for the same
// columns, cache on or off.
func TestInferMatchesPipeline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3})
	req := testBatch(12)
	for pass := 0; pass < 2; pass++ { // second pass answers from cache
		_, resp := postInfer(t, s.Handler(), req)
		for i, c := range req.Columns {
			col := data.Column{Name: c.Name, Values: c.Values}
			wantType, _ := testModel(t).Predict(&col)
			if resp.Predictions[i].Type != wantType.String() {
				t.Errorf("pass %d, col %d: served %q, pipeline says %q",
					pass, i, resp.Predictions[i].Type, wantType)
			}
		}
	}
}

// TestCacheHitRate repeats one batch and requires the second pass to be
// answered from the cache, with /metrics reflecting the hits.
func TestCacheHitRate(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheSize: 256})
	h := s.Handler()
	req := testBatch(20)

	_, first := postInfer(t, h, req)
	if first.CacheHits != 0 {
		t.Fatalf("first pass: %d cache hits, want 0", first.CacheHits)
	}
	_, second := postInfer(t, h, req)
	if second.CacheHits != 20 {
		t.Fatalf("second pass: %d cache hits, want 20", second.CacheHits)
	}
	for i, p := range second.Predictions {
		if !p.CacheHit {
			t.Errorf("second pass, col %d: cache_hit = false", i)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "sortinghatd_cache_hits_total 20\n") {
		t.Errorf("/metrics: want sortinghatd_cache_hits_total 20, got:\n%s", grepMetric(body, "sortinghatd_cache"))
	}
	if !strings.Contains(body, "sortinghatd_cache_misses_total 20\n") {
		t.Errorf("/metrics: want sortinghatd_cache_misses_total 20, got:\n%s", grepMetric(body, "sortinghatd_cache"))
	}
	if !strings.Contains(body, "sortinghatd_cache_entries 20\n") {
		t.Errorf("/metrics: want sortinghatd_cache_entries 20, got:\n%s", grepMetric(body, "sortinghatd_cache"))
	}
	if !strings.Contains(body, "sortinghatd_cache_evictions_total 0\n") {
		t.Errorf("/metrics: want sortinghatd_cache_evictions_total 0, got:\n%s", grepMetric(body, "sortinghatd_cache"))
	}
	if !strings.Contains(body, "sortinghatd_cache_capacity 256\n") {
		t.Errorf("/metrics: want sortinghatd_cache_capacity 256, got:\n%s", grepMetric(body, "sortinghatd_cache"))
	}
}

// grepMetric filters metrics output to lines containing substr, for
// readable failures.
func grepMetric(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestCacheDisabled verifies CacheSize<0 turns caching off entirely.
func TestCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	h := s.Handler()
	req := testBatch(4)
	postInfer(t, h, req)
	_, second := postInfer(t, h, req)
	if second.CacheHits != 0 {
		t.Fatalf("cache disabled but second pass had %d hits", second.CacheHits)
	}
}

// TestCacheKeyDistinguishesNameAndContent guards the cache identity: same
// values under a different attribute name, or a value boundary shift,
// must not collide.
func TestCacheKeyDistinguishesNameAndContent(t *testing.T) {
	a := data.Column{Name: "age", Values: []string{"ab", "c"}}
	b := data.Column{Name: "age2", Values: []string{"ab", "c"}}
	c := data.Column{Name: "age", Values: []string{"a", "bc"}}
	ka, kb, kc := columnKey(&a), columnKey(&b), columnKey(&c)
	if ka == kb {
		t.Error("columns differing only by name share a cache key")
	}
	if ka == kc {
		t.Error("columns differing by value boundaries share a cache key")
	}
	if ka != columnKey(&data.Column{Name: "age", Values: []string{"ab", "c"}}) {
		t.Error("identical columns hash differently")
	}
}

// TestLRUEviction fills the cache past capacity and checks the oldest
// entry is evicted while recently used ones survive.
func TestLRUEviction(t *testing.T) {
	c := newPredCache(2)
	k := func(name string) versionedKey {
		return versionedKey{seq: 1, key: columnKey(&data.Column{Name: name})}
	}
	c.put(k("a"), cachedPrediction{})
	c.put(k("b"), cachedPrediction{})
	if _, ok := c.get(k("a")); !ok { // promote a; b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.put(k("c"), cachedPrediction{})
	if _, ok := c.get(k("b")); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	if _, ok := c.get(k("a")); !ok {
		t.Error("a was promoted by get but still evicted")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
	if got := c.evicted(); got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
	var disabled *predCache
	if disabled.evicted() != 0 || disabled.capacity() != 0 {
		t.Error("nil cache must report zero evictions and capacity")
	}
}

// TestDeadlineExceeded slows the hot path past a tiny request deadline
// and requires a 504 plus a timeout counter increment.
func TestDeadlineExceeded(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, Timeout: 30 * time.Millisecond, CacheSize: -1,
		Faults: slowSite("featurize", 25*time.Millisecond),
	})
	h := s.Handler()

	rec, _ := postInfer(t, h, testBatch(8)) // 8 columns × 25ms on 1 worker ≫ 30ms
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body.Bytes())
	}

	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "sortinghatd_request_timeouts_total 1\n") {
		t.Errorf("timeout not counted:\n%s", grepMetric(mrec.Body.String(), "timeouts"))
	}
}

// TestInferBatchContextCancel covers caller-side cancellation of the
// library entry point.
func TestInferBatchContextCancel(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, Timeout: -1, CacheSize: -1,
		Faults: slowSite("featurize", 10*time.Millisecond),
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	cols := make([]data.Column, 64)
	for i := range cols {
		cols[i] = data.Column{Name: fmt.Sprintf("c%d", i), Values: []string{"1", "2"}}
	}
	if _, err := s.InferBatch(ctx, cols); err == nil {
		t.Fatal("InferBatch returned nil error after cancel")
	}
}

// TestShutdownDrainsInflight starts a slow request against a real HTTP
// server, shuts the server down mid-request, and requires the request to
// complete successfully — Shutdown must drain, not drop.
func TestShutdownDrainsInflight(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	s := newTestServer(t, Config{
		Workers: 2, Timeout: 10 * time.Second, CacheSize: -1,
		Faults: injectFunc(func(site string) error {
			if site == "featurize" {
				once.Do(func() { close(started) })
				time.Sleep(20 * time.Millisecond)
			}
			return nil
		}),
	})

	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()

	type result struct {
		status int
		preds  int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		body, err := json.Marshal(testBatch(8))
		if err != nil {
			resc <- result{err: err}
			return
		}
		resp, err := http.Post(httpSrv.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			resc <- result{err: err}
			return
		}
		var ir InferResponse
		if err := json.Unmarshal(raw, &ir); err != nil {
			resc <- result{status: resp.StatusCode, err: fmt.Errorf("decoding %q: %w", raw, err)}
			return
		}
		resc <- result{status: resp.StatusCode, preds: len(ir.Predictions)}
	}()

	<-started // the request is in flight
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown did not drain the in-flight request: %v", err)
	}

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.err)
	}
	if res.status != http.StatusOK || res.preds != 8 {
		t.Fatalf("in-flight request: status %d with %d predictions, want 200 with 8", res.status, res.preds)
	}

	// After Close, late batches are refused instead of deadlocking.
	s.Close()
	if _, err := s.InferBatch(context.Background(), []data.Column{{Name: "x", Values: []string{"1"}}}); err != ErrServerClosed {
		t.Fatalf("post-Close InferBatch error = %v, want ErrServerClosed", err)
	}
}

// TestHealthz checks the probe payload.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Model != "OurRF" || h.Classes != 9 || h.Workers != 3 {
		t.Errorf("unexpected health payload: %+v", h)
	}
	if h.Breaker != "closed" {
		t.Errorf("breaker = %q, want closed on a fresh server", h.Breaker)
	}
}

// TestBadRequests table-drives the 4xx surface.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBatch: 4})
	h := s.Handler()
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"infer GET", http.MethodGet, "/v1/infer", "", http.StatusMethodNotAllowed},
		{"healthz POST", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
		{"metrics POST", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "/v1/infer", "{nope", http.StatusBadRequest},
		{"empty batch", http.MethodPost, "/v1/infer", `{"columns":[]}`, http.StatusBadRequest},
		{"oversized batch", http.MethodPost, "/v1/infer",
			`{"columns":[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d"},{"name":"e"}]}`,
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body.Bytes())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error responses must carry a JSON error body, got %q", rec.Body.Bytes())
			}
		})
	}
}

// liveValueLine matches the metric lines whose values move with the
// clock or the Go runtime (uptime and the runtime/metrics block); the
// pinned render normalizes their values to X.
var liveValueLine = regexp.MustCompile(`(?m)^(sortinghatd_uptime_seconds|sortinghatd_goroutines|sortinghatd_heap_bytes|sortinghatd_gc_cycles_total|sortinghatd_gc_pause_seconds_total) .*$`)

// scrapeMetrics fetches /metrics with the live values normalized.
func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return liveValueLine.ReplaceAllString(rec.Body.String(), "$1 X")
}

// emptyHistogramText renders the pinned exposition block of a fresh
// obs.Histogram: the fixed 20-bucket log layout plus +Inf, sum and count.
func emptyHistogramText(name, help string) string {
	out := "# HELP " + name + " " + help + "\n# TYPE " + name + " histogram\n"
	for i := 0; i < 20; i++ {
		out += fmt.Sprintf("%s_bucket{le=%q} 0\n", name, fmt.Sprintf("%g", 1e-05*float64(uint64(1)<<i)))
	}
	return out + name + `_bucket{le="+Inf"} 0` + "\n" + name + "_sum 0\n" + name + "_count 0\n"
}

// TestMetricsRenderPinned is the monitoring contract: the full /metrics
// document of a fresh server, byte for byte — names, help strings, type
// headers, and registration order. The pre-obs series must keep their
// exact layout (dashboards parse this); the eviction/capacity and forest
// series sit next to their families. Two scrapes of unchanged state must
// render identically.
func TestMetricsRenderPinned(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheSize: 256})
	h := s.Handler()
	f := testModel(t).Forest
	if f == nil {
		t.Fatal("test model has no forest")
	}

	emptySummary := func(name, help string) string {
		return "# HELP " + name + " " + help + "\n" +
			"# TYPE " + name + " summary\n" +
			name + `{quantile="0.5"} 0` + "\n" +
			name + `{quantile="0.9"} 0` + "\n" +
			name + `{quantile="0.99"} 0` + "\n" +
			name + "_sum 0\n" +
			name + "_count 0\n"
	}
	counter := func(name, help string) string {
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s 0\n", name, help, name, name)
	}
	gauge := func(name, help string, v float64) string {
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	want := counter("sortinghatd_requests_total", "Completed /v1/infer requests.") +
		counter("sortinghatd_request_errors_total", "Rejected /v1/infer requests (malformed or oversized batches).") +
		counter("sortinghatd_request_timeouts_total", "/v1/infer requests that exceeded their deadline.") +
		gauge("sortinghatd_inflight_requests", "Requests currently being served.", 0) +
		counter("sortinghatd_columns_total", "Columns received across all accepted batches.") +
		counter("sortinghatd_cache_hits_total", "Columns answered from the prediction cache.") +
		counter("sortinghatd_cache_misses_total", "Columns that required featurization and prediction.") +
		counter("sortinghatd_cache_evictions_total", "Cache entries evicted to make room (LRU).") +
		gauge("sortinghatd_cache_entries", "Entries currently in the prediction cache.", 0) +
		gauge("sortinghatd_cache_capacity", "Configured prediction cache capacity in columns.", 256) +
		gauge("sortinghatd_workers", "Size of the column worker pool.", 2) +
		counter("sortinghatd_panic_recovered_total", "Panics recovered from the per-column hot path (featurize/predict).") +
		counter("sortinghatd_degraded_total", "Columns answered by the rule-based fallback instead of the ML model.") +
		counter("sortinghatd_shed_total", "Requests fast-failed by the admission gate (HTTP 429).") +
		gauge("sortinghatd_queue_depth", "Columns admitted and not yet picked up by a worker.", 0) +
		gauge("sortinghatd_queue_high_water", "Admission-gate high-water mark in columns.", 2*DefaultMaxBatch) +
		counter("sortinghatd_deadline_expired_in_queue_total", "Columns dropped at worker pickup because their deadline expired while queued (never featurized).") +
		gauge("sortinghatd_breaker_state", "Prediction circuit breaker state (0 closed, 1 open, 2 half-open).", 0) +
		counter("sortinghatd_breaker_open_total", "Times the prediction circuit breaker tripped open.") +
		counter("sortinghatd_faults_injected_total", "Faults fired by the injector (-fault-spec; 0 in production).") +
		counter("sortinghatd_model_reloads_total", "Hot model swaps applied via Reload / POST /admin/reload.") +
		counter("sortinghatd_model_reload_errors_total", "Rejected /admin/reload requests (bad body or unloadable model).") +
		gauge("sortinghatd_model_seq", "Monotonic model swap sequence number (1 = the startup model).", 1) +
		"# HELP sortinghatd_uptime_seconds Seconds since the server started.\n" +
		"# TYPE sortinghatd_uptime_seconds gauge\n" +
		"sortinghatd_uptime_seconds X\n" +
		emptySummary("sortinghatd_batch_columns", "Columns per /v1/infer request.") +
		emptyHistogramText("sortinghatd_decode_seconds", "Per-request body read and decode latency (JSON or CSV).") +
		emptyHistogramText("sortinghatd_queue_seconds", "Per-column wait between admission and worker pickup.") +
		emptyHistogramText("sortinghatd_hash_seconds", "Per-column content hash latency (the cache key's column hash).") +
		emptyHistogramText("sortinghatd_cache_seconds", "Per-column prediction cache lookup latency.") +
		emptyHistogramText("sortinghatd_featurize_seconds", "Per-column base featurization latency.") +
		emptyHistogramText("sortinghatd_predict_seconds", "Per-column model prediction latency.") +
		emptyHistogramText("sortinghatd_encode_seconds", "Per-request latency of encoding and writing the 200 response body.") +
		emptyHistogramText("sortinghatd_request_seconds", "End-to-end /v1/infer latency.") +
		gauge("sortinghatd_forest_split_nodes", "Internal (split) nodes across the forest's fitted trees — the training split count.", float64(f.SplitNodes())) +
		gauge("sortinghatd_forest_leaf_nodes", "Leaf nodes across the forest's fitted trees.", float64(f.LeafNodes())) +
		gauge("sortinghatd_forest_max_depth", "Depth of the deepest fitted tree (root = 0).", float64(f.MaxTreeDepth())) +
		emptySummary("sortinghatd_forest_traversal_depth", "Per-tree traversal depth of forest predictions.") +
		"# HELP sortinghatd_goroutines Current number of live goroutines.\n" +
		"# TYPE sortinghatd_goroutines gauge\n" +
		"sortinghatd_goroutines X\n" +
		"# HELP sortinghatd_heap_bytes Bytes of memory occupied by live heap objects.\n" +
		"# TYPE sortinghatd_heap_bytes gauge\n" +
		"sortinghatd_heap_bytes X\n" +
		"# HELP sortinghatd_gc_cycles_total Completed garbage collection cycles.\n" +
		"# TYPE sortinghatd_gc_cycles_total counter\n" +
		"sortinghatd_gc_cycles_total X\n" +
		"# HELP sortinghatd_gc_pause_seconds_total Approximate total stop-the-world GC pause time, estimated from the runtime pause histogram.\n" +
		"# TYPE sortinghatd_gc_pause_seconds_total counter\n" +
		"sortinghatd_gc_pause_seconds_total X\n"

	got := scrapeMetrics(t, h)
	if got != want {
		t.Errorf("/metrics layout drifted from the pinned contract.\ngot:\n%s\nwant:\n%s", got, want)
	}
	if again := scrapeMetrics(t, h); again != got {
		t.Errorf("two scrapes of unchanged state differ:\nfirst:\n%s\nsecond:\n%s", got, again)
	}
}

// TestDebugTraces drives one batch through a 1-worker server and checks
// the recorded span tree end to end: the root infer span carries the
// request ID that the response header echoed, each column child carries
// featurize/predict grandchildren, every span has a duration, and the
// stage durations sum to no more than the request span (guaranteed only
// with a single worker — parallel columns can overlap).
func TestDebugTraces(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	h := s.Handler()

	rec, _ := postInfer(t, h, testBatch(3))
	if rec.Code != http.StatusOK {
		t.Fatalf("infer status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	reqID := rec.Header().Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("response missing X-Request-Id header")
	}

	trec := httptest.NewRecorder()
	h.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if trec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", trec.Code)
	}
	var tr TracesResponse
	if err := json.Unmarshal(trec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("decoding traces: %v\nbody: %s", err, trec.Body.Bytes())
	}
	if tr.Count != 1 || len(tr.Traces) != 1 {
		t.Fatalf("count = %d with %d traces, want exactly 1 finished trace", tr.Count, len(tr.Traces))
	}

	root := tr.Traces[0]
	if root.Name != "infer" {
		t.Fatalf("root span = %q, want infer", root.Name)
	}
	if root.DurationNS <= 0 {
		t.Errorf("root span has no duration")
	}
	if got := attrValue(root.Attrs, "request_id"); got != reqID {
		t.Errorf("root request_id attr = %q, want %q (must match the X-Request-Id header)", got, reqID)
	}
	if got := attrValue(root.Attrs, "columns"); got != "3" {
		t.Errorf("root columns attr = %q, want 3", got)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root has %d children, want 3 column spans", len(root.Children))
	}

	var stageSum int64
	for i, col := range root.Children {
		if col.Name != "column" {
			t.Fatalf("child %d = %q, want column", i, col.Name)
		}
		if col.DurationNS <= 0 {
			t.Errorf("column span %d has no duration", i)
		}
		if col.StartNS < 0 {
			t.Errorf("column span %d starts before the trace root", i)
		}
		if got := attrValue(col.Attrs, "cache"); got != "miss" {
			t.Errorf("column span %d cache attr = %q, want miss (cache disabled)", i, got)
		}
		if len(col.Children) != 2 {
			t.Fatalf("column span %d has %d children, want featurize+predict", i, len(col.Children))
		}
		for j, want := range []string{"featurize", "predict"} {
			stage := col.Children[j]
			if stage.Name != want {
				t.Fatalf("column %d stage %d = %q, want %q", i, j, stage.Name, want)
			}
			if stage.DurationNS <= 0 {
				t.Errorf("column %d %s span has no duration", i, want)
			}
			stageSum += stage.DurationNS
		}
	}
	if stageSum > root.DurationNS {
		t.Errorf("stage spans sum to %dns, more than the %dns request span", stageSum, root.DurationNS)
	}
}

// attrValue finds the first attribute named key.
func attrValue(attrs []obs.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTraceRingConfig checks the TraceRing bound is honored by the
// endpoint: three requests through a ring of two leaves two traces.
func TestTraceRingConfig(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, TraceRing: 2})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if rec, _ := postInfer(t, h, testBatch(1)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var tr TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count != 2 {
		t.Errorf("ring of 2 retained %d traces", tr.Count)
	}
}

// TestPprofGated checks /debug/pprof/ is absent by default and mounted
// with EnablePprof.
func TestPprofGated(t *testing.T) {
	off := newTestServer(t, Config{Workers: 1})
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", rec.Code)
	}

	on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	rec = httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", rec.Code)
	}
}

// TestAccessLog checks the middleware emits one JSON record per request
// carrying the same request ID the client saw.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, Logger: obs.NewLogger(&buf, slog.LevelInfo)})
	h := s.Handler()
	rec, _ := postInfer(t, h, testBatch(1))

	var entry struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Duration  float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("access log is not one JSON record: %v\nlog: %s", err, buf.Bytes())
	}
	if entry.Msg != "request" || entry.Method != http.MethodPost || entry.Path != "/v1/infer" || entry.Status != http.StatusOK {
		t.Errorf("unexpected access record: %+v", entry)
	}
	if entry.RequestID == "" || entry.RequestID != rec.Header().Get("X-Request-Id") {
		t.Errorf("log request_id %q does not match header %q", entry.RequestID, rec.Header().Get("X-Request-Id"))
	}
	if entry.Duration <= 0 {
		t.Errorf("access record missing duration_ms")
	}
}

// TestConcurrentBatchesDeterministic hammers one server from many
// goroutines with overlapping batches and requires every response to
// agree with the sequential pipeline — the worker pool must not leak
// state across requests.
func TestConcurrentBatchesDeterministic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, CacheSize: 64})
	h := s.Handler()
	req := testBatch(16)
	want := make([]string, len(req.Columns))
	for i, c := range req.Columns {
		col := data.Column{Name: c.Name, Values: c.Values}
		typ, _ := testModel(t).Predict(&col)
		want[i] = typ.String()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(req)
			if err != nil {
				errs <- err
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
				return
			}
			var resp InferResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			for i, p := range resp.Predictions {
				if p.Type != want[i] {
					errs <- fmt.Errorf("col %d: got %q want %q", i, p.Type, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
