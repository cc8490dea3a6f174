package gateway

import (
	"time"

	"sortinghat/internal/obs"
	"sortinghat/internal/serve"
)

// metrics holds the gateway's handles into its obs.Registry. The
// registry renders in registration order, so the order below is the
// pinned /metrics layout (TestGatewayMetricsRenderPinned): fleet-wide
// series first, then one block of four series per replica in ring
// order, then the latency summaries.
type metrics struct {
	serve.FrontMetrics

	columns          *obs.Counter // columns of admitted batches, counted at the gate
	batchSize        *obs.Summary // columns per admitted batch
	shardRequests    *obs.Counter // sub-requests forwarded to replicas
	shardErrors      *obs.Counter // sub-requests that failed
	hedges           *obs.Counter // speculative (hedged) sub-requests
	backoffArmed     *obs.Counter // replica backoffs armed by shedding answers
	rerouted         *obs.Counter // columns answered off their ring owner
	degraded         *obs.Counter // degraded columns in gateway responses
	fallbackColumns  *obs.Counter // columns answered by the local rule fallback
	probeFailures    *obs.Counter // failed health probes
	probeTransitions *obs.Counter // replica health state changes observed

	route         *obs.Histogram // per-request hash-and-group-by-owner seconds
	shardLatency  *obs.Histogram // per-sub-request seconds
	dispatchDur   *obs.Histogram // scatter phase: first dispatch → all groups resolved
	hedgeDur      *obs.Histogram // hedged groups: first hedge fire → resolution
	reassembleDur *obs.Histogram // gather phase: slot-ordered response assembly
}

// newMetrics builds the gateway's registry. State owned elsewhere
// (gate, breakers, probe results, ring) is exposed through render-time
// funcs; the per-replica blocks are named by ring label (r0, r1, ...) —
// the obs registry is label-free by design, so the label lives in the
// series name and the address in the help string.
func newMetrics(g *Gateway) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{FrontMetrics: serve.FrontMetrics{Reg: reg}}
	m.Requests = reg.Counter("sortinghatgw_requests_total", "Completed gateway /v1/infer requests.")
	m.RequestErrors = reg.Counter("sortinghatgw_request_errors_total", "Rejected gateway requests (malformed or oversized batches).")
	m.RequestTimeouts = reg.Counter("sortinghatgw_request_timeouts_total", "Gateway requests that exceeded their deadline.")
	m.Inflight = reg.Gauge("sortinghatgw_inflight_requests", "Requests currently being served.")
	m.columns = reg.Counter("sortinghatgw_columns_total", "Columns received across all accepted batches.")
	m.shardRequests = reg.Counter("sortinghatgw_shard_requests_total", "Sub-requests forwarded to replicas (including hedges and retries).")
	m.shardErrors = reg.Counter("sortinghatgw_shard_errors_total", "Forwarded sub-requests that failed (transport error or non-200).")
	m.hedges = reg.Counter("sortinghatgw_hedged_requests_total", "Speculative sub-requests fired after the hedge delay.")
	reg.CounterFunc("sortinghatgw_retry_budget_denied_total", "Speculative attempts (hedges and failover retries) denied by the retry budget.", g.budget.Denied)
	reg.GaugeFunc("sortinghatgw_retry_budget_tokens", "Tokens currently in the retry-budget bucket.", g.budget.Tokens)
	m.backoffArmed = reg.Counter("sortinghatgw_backoff_armed_total", "Times a replica's backoff was armed by a shedding (429/503) answer.")
	m.rerouted = reg.Counter("sortinghatgw_rerouted_columns_total", "Columns answered by a replica other than their ring owner.")
	m.degraded = reg.Counter("sortinghatgw_degraded_columns_total", "Degraded columns in gateway responses (replica fallback or local rules).")
	m.fallbackColumns = reg.Counter("sortinghatgw_fallback_columns_total", "Columns answered by the gateway's local rule fallback (fleet unreachable).")
	reg.CounterFunc("sortinghatgw_shed_total", "Requests fast-failed by the admission gate (HTTP 429).", g.gate.Shed)
	reg.GaugeFunc("sortinghatgw_queue_depth", "Columns admitted and not yet answered.", func() float64 { return float64(g.gate.Depth()) })
	reg.GaugeFunc("sortinghatgw_queue_high_water", "Admission-gate high-water mark in columns.", func() float64 { return float64(g.gate.Capacity()) })
	reg.GaugeFunc("sortinghatgw_replicas", "Replicas on the ring.", func() float64 { return float64(len(g.replicas)) })
	reg.GaugeFunc("sortinghatgw_replicas_healthy", "Replicas currently routing normally (probe ok, breaker closed).", func() float64 { return float64(g.healthyCount()) })
	m.probeFailures = reg.Counter("sortinghatgw_probe_failures_total", "Health probes that failed (transport error, non-200, or bad body).")
	m.probeTransitions = reg.Counter("sortinghatgw_probe_transitions_total", "Replica health state changes observed by the prober.")
	reg.CounterFunc("sortinghatgw_faults_injected_total", "Faults fired by the injector (-fault-spec; 0 in production).", g.faultsFired)
	reg.GaugeFunc("sortinghatgw_uptime_seconds", "Seconds since the gateway started.", func() float64 { return time.Since(g.start).Seconds() })
	for i, r := range g.replicas {
		i, r := i, r
		reg.GaugeFunc("sortinghatgw_replica_"+r.label+"_health", "Probe state of "+r.addr+" (0 healthy, 1 degraded, 2 down).", func() float64 { return float64(r.health.Load()) })
		reg.GaugeFunc("sortinghatgw_replica_"+r.label+"_breaker_state", "Forwarding breaker state for "+r.addr+" (0 closed, 1 open, 2 half-open).", func() float64 { return float64(r.breaker.State()) })
		reg.CounterFunc("sortinghatgw_replica_"+r.label+"_requests_total", "Sub-requests forwarded to "+r.addr+".", r.requests.Load)
		reg.CounterFunc("sortinghatgw_replica_"+r.label+"_errors_total", "Failed sub-requests to "+r.addr+".", r.errors.Load)
		reg.GaugeFunc("sortinghatgw_replica_"+r.label+"_ownership", "Ring ownership share of "+r.addr+".", func() float64 { return g.owned[i] })
		reg.GaugeFunc("sortinghatgw_replica_"+r.label+"_concurrency_limit", "Adaptive (AIMD) concurrency limit on forwards to "+r.addr+".", func() float64 { return float64(r.limiter.Limit()) })
		reg.GaugeFunc("sortinghatgw_replica_"+r.label+"_inflight", "Sub-requests currently in flight to "+r.addr+".", func() float64 { return float64(r.limiter.Inflight()) })
		reg.GaugeFunc("sortinghatgw_replica_"+r.label+"_in_backoff", "Whether "+r.addr+" is inside its backoff window (1 = yes).", func() float64 {
			if r.backoff.Ready() {
				return 0
			}
			return 1
		})
	}
	m.batchSize = reg.Summary("sortinghatgw_batch_columns", "Columns per gateway request.")
	m.Decode = reg.Histogram("sortinghatgw_decode_seconds", "Per-request body read and decode latency (JSON or CSV).")
	m.route = reg.Histogram("sortinghatgw_route_seconds", "Per-request routing latency: hashing every column and grouping the batch by ring owner.")
	m.shardLatency = reg.Histogram("sortinghatgw_shard_seconds", "Per-sub-request forwarding latency.")
	m.dispatchDur = reg.Histogram("sortinghatgw_dispatch_seconds", "Scatter-phase latency: dispatch of the first group until every group resolved.")
	m.hedgeDur = reg.Histogram("sortinghatgw_hedge_seconds", "Hedge-phase latency of hedged groups: first speculative fire until resolution.")
	m.reassembleDur = reg.Histogram("sortinghatgw_reassemble_seconds", "Gather-phase latency: slot-ordered reassembly of the batch response.")
	m.Encode = reg.Histogram("sortinghatgw_encode_seconds", "Per-request latency of encoding and writing the 200 response body.")
	m.Request = reg.Histogram("sortinghatgw_request_seconds", "End-to-end gateway request latency.")
	reg.RuntimeMetrics("sortinghatgw")
	return m
}
