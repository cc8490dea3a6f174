package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"sortinghat/internal/resilience"
)

// liveValueLine strips the wall-clock- and runtime-dependent values
// from a scrape so the rest of the document can be pinned byte for
// byte.
var liveValueLine = regexp.MustCompile(`(?m)^(sortinghatgw_uptime_seconds|sortinghatgw_goroutines|sortinghatgw_heap_bytes|sortinghatgw_gc_cycles_total|sortinghatgw_gc_pause_seconds_total) .*$`)

// scrapeMetrics fetches /metrics through the handler.
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
// obs.Histogram: the fixed 20-bucket log layout plus +Inf, sum and
// count.
func emptyHistogramText(name, help string) string {
	out := "# HELP " + name + " " + help + "\n# TYPE " + name + " histogram\n"
	for i := 0; i < 20; i++ {
		out += fmt.Sprintf("%s_bucket{le=%q} 0\n", name, fmt.Sprintf("%g", 1e-05*float64(uint64(1)<<i)))
	}
	return out + name + `_bucket{le="+Inf"} 0` + "\n" + name + "_sum 0\n" + name + "_count 0\n"
}

// TestGatewayMetricsRenderPinned is the gateway's monitoring contract:
// the full /metrics document of a fresh two-replica gateway, byte for
// byte — names, help strings, type headers, registration order, and the
// per-replica blocks in ring order. The fixture uses unreachable
// replicas and stops the prober after its startup sweep, so every value
// is deterministic: both replicas probed Down once each.
func TestGatewayMetricsRenderPinned(t *testing.T) {
	// 127.0.0.1:1 refuses connections immediately; addresses sort so a < b
	// and ring labels are r0, r1.
	addrA, addrB := "http://127.0.0.1:1/a", "http://127.0.0.1:1/b"
	g, err := New(Config{Replicas: []string{addrA, addrB}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Close() // deterministic: exactly the startup probe sweep has run
	h := g.Handler()

	emptySummary := func(name, help string) string {
		return "# HELP " + name + " " + help + "\n" +
			"# TYPE " + name + " summary\n" +
			name + `{quantile="0.5"} 0` + "\n" +
			name + `{quantile="0.9"} 0` + "\n" +
			name + `{quantile="0.99"} 0` + "\n" +
			name + "_sum 0\n" +
			name + "_count 0\n"
	}
	counter := func(name, help string, v int64) string {
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) string {
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	replicaBlock := func(label, addr string, ownership float64) string {
		return gauge("sortinghatgw_replica_"+label+"_health", "Probe state of "+addr+" (0 healthy, 1 degraded, 2 down).", 2) +
			gauge("sortinghatgw_replica_"+label+"_breaker_state", "Forwarding breaker state for "+addr+" (0 closed, 1 open, 2 half-open).", 0) +
			counter("sortinghatgw_replica_"+label+"_requests_total", "Sub-requests forwarded to "+addr+".", 0) +
			counter("sortinghatgw_replica_"+label+"_errors_total", "Failed sub-requests to "+addr+".", 0) +
			gauge("sortinghatgw_replica_"+label+"_ownership", "Ring ownership share of "+addr+".", ownership) +
			gauge("sortinghatgw_replica_"+label+"_concurrency_limit", "Adaptive (AIMD) concurrency limit on forwards to "+addr+".", resilience.DefaultAIMDMax) +
			gauge("sortinghatgw_replica_"+label+"_inflight", "Sub-requests currently in flight to "+addr+".", 0) +
			gauge("sortinghatgw_replica_"+label+"_in_backoff", "Whether "+addr+" is inside its backoff window (1 = yes).", 0)
	}
	want := counter("sortinghatgw_requests_total", "Completed gateway /v1/infer requests.", 0) +
		counter("sortinghatgw_request_errors_total", "Rejected gateway requests (malformed or oversized batches).", 0) +
		counter("sortinghatgw_request_timeouts_total", "Gateway requests that exceeded their deadline.", 0) +
		gauge("sortinghatgw_inflight_requests", "Requests currently being served.", 0) +
		counter("sortinghatgw_columns_total", "Columns received across all accepted batches.", 0) +
		counter("sortinghatgw_shard_requests_total", "Sub-requests forwarded to replicas (including hedges and retries).", 0) +
		counter("sortinghatgw_shard_errors_total", "Forwarded sub-requests that failed (transport error or non-200).", 0) +
		counter("sortinghatgw_hedged_requests_total", "Speculative sub-requests fired after the hedge delay.", 0) +
		counter("sortinghatgw_retry_budget_denied_total", "Speculative attempts (hedges and failover retries) denied by the retry budget.", 0) +
		gauge("sortinghatgw_retry_budget_tokens", "Tokens currently in the retry-budget bucket.", resilience.DefaultRetryBurst) +
		counter("sortinghatgw_backoff_armed_total", "Times a replica's backoff was armed by a shedding (429/503) answer.", 0) +
		counter("sortinghatgw_rerouted_columns_total", "Columns answered by a replica other than their ring owner.", 0) +
		counter("sortinghatgw_degraded_columns_total", "Degraded columns in gateway responses (replica fallback or local rules).", 0) +
		counter("sortinghatgw_fallback_columns_total", "Columns answered by the gateway's local rule fallback (fleet unreachable).", 0) +
		counter("sortinghatgw_shed_total", "Requests fast-failed by the admission gate (HTTP 429).", 0) +
		gauge("sortinghatgw_queue_depth", "Columns admitted and not yet answered.", 0) +
		gauge("sortinghatgw_queue_high_water", "Admission-gate high-water mark in columns.", 2048) +
		gauge("sortinghatgw_replicas", "Replicas on the ring.", 2) +
		gauge("sortinghatgw_replicas_healthy", "Replicas currently routing normally (probe ok, breaker closed).", 0) +
		counter("sortinghatgw_probe_failures_total", "Health probes that failed (transport error, non-200, or bad body).", 2) +
		counter("sortinghatgw_probe_transitions_total", "Replica health state changes observed by the prober.", 2) +
		counter("sortinghatgw_faults_injected_total", "Faults fired by the injector (-fault-spec; 0 in production).", 0) +
		"# HELP sortinghatgw_uptime_seconds Seconds since the gateway started.\n" +
		"# TYPE sortinghatgw_uptime_seconds gauge\n" +
		"sortinghatgw_uptime_seconds X\n" +
		replicaBlock("r0", addrA, g.owned[0]) +
		replicaBlock("r1", addrB, g.owned[1]) +
		emptySummary("sortinghatgw_batch_columns", "Columns per gateway request.") +
		emptyHistogramText("sortinghatgw_decode_seconds", "Per-request body read and decode latency (JSON or CSV).") +
		emptyHistogramText("sortinghatgw_route_seconds", "Per-request routing latency: hashing every column and grouping the batch by ring owner.") +
		emptyHistogramText("sortinghatgw_shard_seconds", "Per-sub-request forwarding latency.") +
		emptyHistogramText("sortinghatgw_dispatch_seconds", "Scatter-phase latency: dispatch of the first group until every group resolved.") +
		emptyHistogramText("sortinghatgw_hedge_seconds", "Hedge-phase latency of hedged groups: first speculative fire until resolution.") +
		emptyHistogramText("sortinghatgw_reassemble_seconds", "Gather-phase latency: slot-ordered reassembly of the batch response.") +
		emptyHistogramText("sortinghatgw_encode_seconds", "Per-request latency of encoding and writing the 200 response body.") +
		emptyHistogramText("sortinghatgw_request_seconds", "End-to-end gateway request latency.") +
		"# HELP sortinghatgw_goroutines Current number of live goroutines.\n" +
		"# TYPE sortinghatgw_goroutines gauge\n" +
		"sortinghatgw_goroutines X\n" +
		"# HELP sortinghatgw_heap_bytes Bytes of memory occupied by live heap objects.\n" +
		"# TYPE sortinghatgw_heap_bytes gauge\n" +
		"sortinghatgw_heap_bytes X\n" +
		"# HELP sortinghatgw_gc_cycles_total Completed garbage collection cycles.\n" +
		"# TYPE sortinghatgw_gc_cycles_total counter\n" +
		"sortinghatgw_gc_cycles_total X\n" +
		"# HELP sortinghatgw_gc_pause_seconds_total Approximate total stop-the-world GC pause time, estimated from the runtime pause histogram.\n" +
		"# TYPE sortinghatgw_gc_pause_seconds_total counter\n" +
		"sortinghatgw_gc_pause_seconds_total X\n"

	got := scrapeMetrics(t, h)
	if got != want {
		t.Errorf("gateway /metrics layout drifted from the pinned contract.\ngot:\n%s\nwant:\n%s", got, want)
	}
	if again := scrapeMetrics(t, h); again != got {
		t.Errorf("two scrapes of unchanged state differ:\nfirst:\n%s\nsecond:\n%s", got, again)
	}
}
