package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"sortinghat/internal/data"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience"
	"sortinghat/internal/serve"
)

// maxRequestBody bounds request bodies, matching the daemon's limit.
const maxRequestBody = 64 << 20

// BatchResponse is the JSON body answering the gateway's POST /v1/infer
// and /v1/infer/csv. Predictions are index-aligned with the request's
// columns regardless of how the batch was sharded. ModelVersions counts
// columns per answering model version — during a canary rollout this is
// where the canary's traffic share shows up; the "rules/fallback" pair
// appears when the gateway answered columns locally.
type BatchResponse struct {
	Gateway         string                  `json:"gateway"`
	Model           string                  `json:"model"`
	ModelVersions   map[string]int          `json:"model_versions"`
	Predictions     []serve.InferPrediction `json:"predictions"`
	CacheHits       int                     `json:"cache_hits"`
	DegradedColumns int                     `json:"degraded_columns"`
	ReroutedColumns int                     `json:"rerouted_columns"`
	HedgedRequests  int                     `json:"hedged_requests"`
	Shards          int                     `json:"shards"`
	ElapsedMS       float64                 `json:"elapsed_ms"`
}

// FleetHealth is the JSON body answering the gateway's GET /healthz.
// Status is "ok" while at least one replica routes normally, "degraded"
// otherwise (the gateway still answers, worst case from its local rule
// fallback).
type FleetHealth struct {
	Status        string          `json:"status"`
	Replicas      []ReplicaStatus `json:"replicas"`
	UptimeSeconds float64         `json:"uptime_seconds"`
}

// ReplicaStatus is one replica's row in FleetHealth: identity, probe
// and breaker state, ring ownership share, and lifetime shard traffic.
type ReplicaStatus struct {
	Replica   string  `json:"replica"`
	Addr      string  `json:"addr"`
	Health    string  `json:"health"`
	Breaker   string  `json:"breaker"`
	Ownership float64 `json:"ownership"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the gateway's HTTP API — the daemon's inference
// surface, fleet-wide: POST /v1/infer, POST /v1/infer/csv, GET /healthz
// (fleet view), GET /metrics, GET /debug/traces, GET /debug/flight
// (slowest and errored recent requests), and (with Config.EnablePprof)
// /debug/pprof/. Requests get an X-Request-Id and one access-log
// record, like the daemon.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", g.handleInfer)
	mux.HandleFunc("/v1/infer/csv", g.handleInferCSV)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/debug/traces", g.handleTraces)
	mux.HandleFunc("/debug/flight", g.handleFlight)
	if g.cfg.EnablePprof {
		obs.MountPprof(mux)
	}
	return g.observe(mux)
}

// observe assigns the request ID (reusing a forwarded X-Request-Id so
// an upstream proxy's id survives into fleet logs), echoes it to the
// client, continues an incoming W3C traceparent, and emits the
// access-log record.
func (g *Gateway) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = "gw-" + strconv.FormatInt(g.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obs.WithRequestID(r.Context(), id)
		if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.ContextWithRemoteParent(ctx, sc)
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if g.logger != nil {
			g.logger.Info("request",
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", float64(time.Since(start).Microseconds())/1000)
		}
	})
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// writeJSON marshals v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// handleInfer decodes a JSON batch and shards it across the fleet.
func (g *Gateway) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	start := time.Now()
	g.met.inflight.Add(1)
	defer g.met.inflight.Add(-1)
	defer g.met.requests.Add(1)

	ctx, span := g.tracer.Start(r.Context(), "gateway")
	span.SetAttr("request_id", obs.RequestIDFrom(ctx))
	defer span.End()

	// Past the column limit the decoder stops early and hands over the
	// columns it read, so serveBatch rejects the batch as too large.
	cols, err := serve.ReadInferRequest(w, r, maxRequestBody, g.cfg.MaxBatch)
	decode := time.Since(start)
	g.met.decode.Observe(decode.Seconds())
	if err != nil && !errors.Is(err, serve.ErrTooManyColumns) {
		g.met.requestErrors.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	g.serveBatch(w, ctx, span, start, decode, r.URL.Path, r.Header.Get(serve.DeadlineHeader), cols)
}

// handleInferCSV ingests a whole table as CSV and shards its columns,
// applying the same adversarial-input limits as the daemon.
func (g *Gateway) handleInferCSV(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	start := time.Now()
	g.met.inflight.Add(1)
	defer g.met.inflight.Add(-1)
	defer g.met.requests.Add(1)

	ctx, span := g.tracer.Start(r.Context(), "gateway")
	span.SetAttr("request_id", obs.RequestIDFrom(ctx))
	span.SetAttr("format", "csv")
	defer span.End()

	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	ds, err := data.ReadCSVLimited("request", body, data.Limits{
		MaxColumns:   g.cfg.MaxBatch,
		MaxCellBytes: g.cfg.MaxCellBytes,
	})
	decode := time.Since(start)
	g.met.decode.Observe(decode.Seconds())
	if err != nil {
		g.met.requestErrors.Add(1)
		var tooLarge *http.MaxBytesError
		switch {
		case errors.Is(err, data.ErrTooManyColumns), errors.Is(err, data.ErrCellTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		case errors.As(err, &tooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
		default:
			writeError(w, http.StatusBadRequest, "parsing csv: "+err.Error())
		}
		return
	}
	g.serveBatch(w, ctx, span, start, decode, r.URL.Path, r.Header.Get(serve.DeadlineHeader), ds.Columns)
}

// serveBatch is the shared tail of the infer handlers: validate, admit
// through the gate, scatter by ring ownership, gather, and reassemble
// in request order. Once the response is decided the request is offered
// to the flight recorder with its trace identity, per-phase durations
// (decode, the handler's body read and decode; route, hashing and
// grouping by ring owner; dispatch; hedge; reassemble) and the routing
// decisions that shaped the answer.
//
//shvet:hotpath request tail of every gateway infer endpoint; all per-request instrumentation lands here
func (g *Gateway) serveBatch(w http.ResponseWriter, ctx context.Context, span *obs.Span, start time.Time, decode time.Duration, path, deadlineMS string, cols []data.Column) {
	status, errMsg := http.StatusOK, ""
	var routeDur, dispatchDur, hedgeDur, reassembleDur time.Duration
	var notes []string
	defer func() {
		g.flight.Record(obs.FlightRecord{
			TraceID:    span.Context().TraceID.String(),
			RequestID:  obs.RequestIDFrom(ctx),
			Path:       path,
			Status:     status,
			DurationNS: time.Since(start).Nanoseconds(),
			Columns:    len(cols),
			Phases: []obs.Phase{
				{Name: "decode", DurationNS: decode.Nanoseconds()},
				{Name: "route", DurationNS: routeDur.Nanoseconds()},
				{Name: "dispatch", DurationNS: dispatchDur.Nanoseconds()},
				{Name: "hedge", DurationNS: hedgeDur.Nanoseconds()},
				{Name: "reassemble", DurationNS: reassembleDur.Nanoseconds()},
			},
			Notes: notes,
			Err:   errMsg,
		})
	}()
	fail := func(st int, msg string) {
		status, errMsg = st, msg
		writeError(w, st, msg)
	}
	if len(cols) == 0 {
		g.met.requestErrors.Add(1)
		fail(http.StatusBadRequest, "empty batch: provide at least one column")
		return
	}
	if len(cols) > g.cfg.MaxBatch {
		g.met.requestErrors.Add(1)
		fail(http.StatusBadRequest, "batch too large: max "+strconv.Itoa(g.cfg.MaxBatch)+" columns")
		return
	}
	// Honor a propagated deadline before admitting work: a client (or an
	// upstream gateway tier) that sends X-Deadline-Ms bounds how long
	// this request may hold queue and replica capacity.
	if deadlineMS != "" {
		ms, err := strconv.ParseInt(deadlineMS, 10, 64)
		if err != nil {
			g.met.requestErrors.Add(1)
			fail(http.StatusBadRequest, "malformed "+serve.DeadlineHeader+" header: "+deadlineMS)
			return
		}
		if ms <= 0 {
			g.met.requestTimeouts.Add(1)
			notes = append(notes, "rejected by control: deadline (budget spent before admission)")
			span.SetAttr("deadline", "spent")
			w.Header().Set("Retry-After", g.retryAfter())
			fail(http.StatusGatewayTimeout, "request budget spent before admission")
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	if err := g.gate.TryReserve(len(cols)); err != nil {
		span.SetAttr("shed", "true")
		notes = append(notes, "rejected by control: gate (queue at high water)")
		w.Header().Set("Retry-After", g.retryAfter())
		fail(http.StatusTooManyRequests, "overloaded: queue past high water; retry later")
		return
	}
	defer g.gate.Release(len(cols))
	g.met.columns.Add(int64(len(cols)))
	g.met.batchSize.Observe(float64(len(cols)))
	span.SetAttr("columns", strconv.Itoa(len(cols)))

	if g.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.Timeout)
		defer cancel()
	}

	rtStart := time.Now()
	groups := g.shardGroups(cols)
	dStart := time.Now()
	routeDur = dStart.Sub(rtStart)
	g.met.route.Observe(routeDur.Seconds())
	results := g.scatter(ctx, groups)
	dispatchDur = time.Since(dStart)
	g.met.dispatchDur.Observe(dispatchDur.Seconds())
	for i := range results {
		hedgeDur += results[i].hedgeDur
	}

	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			g.met.requestTimeouts.Add(1)
			notes = append(notes, "rejected by control: deadline (request budget exhausted)")
			w.Header().Set("Retry-After", g.retryAfter())
			fail(http.StatusGatewayTimeout, "deadline exceeded before the batch completed")
			return
		}
		// The client went away; the status code is never seen.
		fail(http.StatusServiceUnavailable, "request canceled")
		return
	}

	rStart := time.Now()
	notes = make([]string, 0, len(groups))
	resp := BatchResponse{
		Gateway:       "sortinghatgw",
		ModelVersions: make(map[string]int, 2),
		Predictions:   make([]serve.InferPrediction, len(cols)),
		Shards:        len(groups),
	}
	for gi, res := range results {
		gr := &groups[gi]
		//shvet:ignore alloc-in-loop notes is re-made with cap len(groups) just above; it must be declared earlier so the deferred flight record can capture it
		notes = append(notes, routeNote(g, gr, &results[gi]))
		if res.replica >= 0 && res.replica != gr.owner {
			resp.ReroutedColumns += len(gr.idxs)
			g.met.rerouted.Add(int64(len(gr.idxs)))
		}
		resp.HedgedRequests += res.hedged
		resp.CacheHits += res.cacheHit
		if resp.Model == "" && res.replica >= 0 {
			resp.Model = res.model
		}
		resp.ModelVersions[res.version] += len(gr.idxs)
		for j, i := range gr.idxs {
			resp.Predictions[i] = res.preds[j]
			if res.preds[j].Degraded {
				resp.DegradedColumns++
			}
		}
	}
	if resp.Model == "" {
		resp.Model = "rules" // every group fell back locally
	}
	g.met.degraded.Add(int64(resp.DegradedColumns))
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	reassembleDur = time.Since(rStart)
	g.met.reassembleDur.Observe(reassembleDur.Seconds())
	g.met.request.ObserveSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// routeNote renders one group's routing decision for the flight
// recorder: owner, column count, who actually answered, and whether
// hedging or the local fallback was involved.
func routeNote(g *Gateway, gr *group, res *groupResult) string {
	note := "shard " + g.replicas[gr.owner].label + ": " + strconv.Itoa(len(gr.cols)) + " cols -> "
	switch {
	case res.replica >= 0:
		note += g.replicas[res.replica].label
	default:
		note += "rulefallback"
	}
	if res.hedged > 0 {
		note += " (hedged x" + strconv.Itoa(res.hedged) + ")"
	}
	if res.attempts > 1 {
		note += " (attempts " + strconv.Itoa(res.attempts) + ")"
	}
	if res.denied > 0 {
		note += " (budget-denied x" + strconv.Itoa(res.denied) + ")"
	}
	return note
}

// retryAfter derives the Retry-After hint for shed and budget-spent
// responses from live queue fullness.
func (g *Gateway) retryAfter() string {
	return strconv.FormatInt(resilience.RetryAfterSeconds(
		g.gate.Depth(), g.gate.Capacity(), int64(g.cfg.RetryAfterMax)), 10)
}

// handleHealthz answers with the fleet view: per-replica probe state,
// breaker state, and ring ownership.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	status := "degraded"
	if g.healthyCount() > 0 {
		status = "ok"
	}
	writeJSON(w, http.StatusOK, FleetHealth{
		Status:        status,
		Replicas:      g.replicaStatuses(),
		UptimeSeconds: time.Since(g.start).Seconds(),
	})
}

// handleMetrics answers Prometheus scrapes in text exposition format.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.met.reg.WritePrometheus(w)
}

// handleTraces serves the ring of recent request traces as JSON span
// trees.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	traces := g.tracer.Recent()
	writeJSON(w, http.StatusOK, serve.TracesResponse{Count: len(traces), Traces: traces})
}

// handleFlight serves the flight recorder: the slowest and most
// recently errored gateway requests with trace ids, per-phase
// durations, and per-shard routing notes.
func (g *Gateway) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, g.flight.Snapshot())
}
