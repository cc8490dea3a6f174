package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience"
)

// maxRequestBody bounds /v1/infer request bodies (64 MiB covers a
// 1024-column batch of long text columns with room to spare).
const maxRequestBody = 64 << 20

// DeadlineHeader carries the caller's remaining time budget in whole
// milliseconds. The gateway stamps it on every forwarded leg (its own
// deadline minus a network-slack allowance) and the replica clamps its
// server-side timeout down to it, so a replica never keeps working on a
// column whose answer the gateway has already given up waiting for.
const DeadlineHeader = "X-Deadline-Ms"

// InferRequest is the JSON body of POST /v1/infer: a batch of raw
// columns, typically every column of one ingested table.
type InferRequest struct {
	Columns []InferColumn `json:"columns"`
}

// InferColumn is one raw column of an inference batch.
type InferColumn struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// InferResponse is the JSON body answering POST /v1/infer. Predictions
// are index-aligned with the request's columns. ModelVersion is the
// operator label of the model serving when the response was built; a
// batch racing a hot reload may contain columns answered by the previous
// version (each column is internally consistent — see Server.Reload).
type InferResponse struct {
	Model           string            `json:"model"`
	ModelVersion    string            `json:"model_version"`
	Predictions     []InferPrediction `json:"predictions"`
	CacheHits       int               `json:"cache_hits"`
	DegradedColumns int               `json:"degraded_columns"`
	ElapsedMS       float64           `json:"elapsed_ms"`
}

// InferPrediction is the inference result for one column.
type InferPrediction struct {
	Name       string             `json:"name"`
	Type       string             `json:"type"`
	Confidence float64            `json:"confidence"`
	Probs      map[string]float64 `json:"probs"`
	CacheHit   bool               `json:"cache_hit"`
	// Degraded marks rule-fallback answers (ML path faulted or breaker
	// open); Error carries the per-column failure when there was one.
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
}

// HealthResponse is the JSON body answering GET /healthz. Status is "ok",
// or "degraded" while the prediction breaker is not closed and columns
// are answered by the rule fallback.
type HealthResponse struct {
	Status        string  `json:"status"`
	Breaker       string  `json:"breaker"`
	Model         string  `json:"model"`
	ModelVersion  string  `json:"model_version"`
	ModelSeq      uint64  `json:"model_seq"`
	Classes       int     `json:"classes"`
	Workers       int     `json:"workers"`
	CacheEntries  int     `json:"cache_entries"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ReloadRequest is the JSON body of POST /admin/reload: the path of a
// versioned gob model snapshot (written by `sortinghat train -out` /
// core.Pipeline.SaveFile) to hot-swap in, plus an optional operator
// label for the new version (empty derives "v<seq>").
type ReloadRequest struct {
	Path    string `json:"path"`
	Version string `json:"version,omitempty"`
}

// ReloadResponse is the JSON body answering a successful POST
// /admin/reload.
type ReloadResponse struct {
	Model           string `json:"model"`
	Version         string `json:"version"`
	PreviousVersion string `json:"previous_version"`
	Seq             uint64 `json:"seq"`
	CachePurged     int    `json:"cache_purged"`
}

// TracesResponse is the JSON body answering GET /debug/traces: the
// bounded ring of recent finished request traces, oldest first.
type TracesResponse struct {
	Count  int            `json:"count"`
	Traces []obs.SpanJSON `json:"traces"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API: POST /v1/infer, POST
// /v1/infer/csv, POST /admin/reload, GET /healthz, GET /metrics, GET
// /debug/traces, GET /debug/flight, and (with Config.EnablePprof)
// /debug/pprof/. Every request passes the observability middleware: it
// gets a request ID (echoed as X-Request-Id and attached to the
// request's trace span), continues an incoming traceparent so this
// process's spans join the caller's distributed trace, and, when
// Config.Logger is set, emits one structured access-log record.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/infer/csv", s.handleInferCSV)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	if s.cfg.EnablePprof {
		obs.MountPprof(mux)
	}
	return s.observe(mux)
}

// observe is the middleware correlating the signals: it reuses the
// caller's X-Request-Id when one is forwarded (the gateway forwards its
// own, so fleet logs for one request join on a single id) or mints a
// fresh one, propagates it via context to the trace span, echoes it to
// the client, continues an incoming W3C traceparent as the remote parent
// of this request's root span, and emits the access-log record.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = "req-" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obs.WithRequestID(r.Context(), id)
		if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.ContextWithRemoteParent(ctx, sc)
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if s.logger != nil {
			s.logger.Info("request",
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

// writeJSON marshals v with the given status. Encoding errors past the
// header cannot be reported to the client; they surface as a truncated
// body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// handleInfer decodes a JSON batch, runs it through the worker pool, and
// answers with per-column predictions.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	start := time.Now()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	defer s.met.requests.Add(1)

	ctx, span := s.tracer.Start(r.Context(), "infer")
	span.SetAttr("request_id", obs.RequestIDFrom(ctx))
	defer span.End()

	// Past the column limit the decoder stops early and hands over the
	// columns it read, so serveBatch rejects the batch as too large.
	cols, err := ReadInferRequest(w, r, maxRequestBody, s.cfg.MaxBatch)
	decode := time.Since(start)
	s.met.decode.Observe(decode.Seconds())
	if err != nil && !errors.Is(err, ErrTooManyColumns) {
		s.met.requestErrors.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	s.serveBatch(w, ctx, span, start, decode, r.URL.Path, r.Header.Get(DeadlineHeader), cols)
}

// handleInferCSV ingests a whole table as CSV (the form AutoML platforms
// hold tables in) and classifies every column. Parsing applies the
// adversarial-input limits: column count is capped at Config.MaxBatch and
// cell size at Config.MaxCellBytes, both answered with 413 so oversized
// uploads fail fast instead of ballooning memory.
func (s *Server) handleInferCSV(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	start := time.Now()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	defer s.met.requests.Add(1)

	ctx, span := s.tracer.Start(r.Context(), "infer")
	span.SetAttr("request_id", obs.RequestIDFrom(ctx))
	span.SetAttr("format", "csv")
	defer span.End()

	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	ds, err := data.ReadCSVLimited("request", body, data.Limits{
		MaxColumns:   s.cfg.MaxBatch,
		MaxCellBytes: s.cfg.MaxCellBytes,
	})
	decode := time.Since(start)
	s.met.decode.Observe(decode.Seconds())
	if err != nil {
		s.met.requestErrors.Add(1)
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
	s.serveBatch(w, ctx, span, start, decode, r.URL.Path, r.Header.Get(DeadlineHeader), ds.Columns)
}

// serveBatch is the shared tail of the infer handlers: validate the
// batch, fan it out, and render the response (or map the failure onto the
// HTTP error surface). It attaches the request's phase accumulator to the
// context the workers see and, once the response is decided, offers the
// request to the flight recorder with its identity, per-phase totals
// (decode is the handler's body read and decode) and outcome.
//
//shvet:hotpath request tail of every infer endpoint; all per-request instrumentation lands here
func (s *Server) serveBatch(w http.ResponseWriter, ctx context.Context, span *obs.Span, start time.Time, decode time.Duration, path, deadlineMS string, cols []data.Column) {
	status, errMsg := http.StatusOK, ""
	var notes []string
	ctx, acc := withPhases(ctx)
	defer func() {
		if n := acc.expiredCount(); n > 0 {
			notes = append(notes, "deadline expired in queue for "+strconv.FormatInt(n, 10)+" columns (never featurized)")
		}
		s.flight.Record(obs.FlightRecord{
			TraceID:    span.Context().TraceID.String(),
			RequestID:  obs.RequestIDFrom(ctx),
			Path:       path,
			Status:     status,
			DurationNS: time.Since(start).Nanoseconds(),
			Columns:    len(cols),
			Phases:     acc.phases(decode),
			Err:        errMsg,
			Notes:      notes,
		})
	}()
	fail := func(st int, msg string) {
		status, errMsg = st, msg
		writeError(w, st, msg)
	}
	if len(cols) == 0 {
		s.met.requestErrors.Add(1)
		fail(http.StatusBadRequest, "empty batch: provide at least one column")
		return
	}
	if len(cols) > s.cfg.MaxBatch {
		s.met.requestErrors.Add(1)
		fail(http.StatusBadRequest, "batch too large: max "+strconv.Itoa(s.cfg.MaxBatch)+" columns")
		return
	}
	// Honor a propagated deadline before admitting any work: clamp the
	// request context to the caller's remaining budget so queued columns
	// expire (and are dropped at pickup) the moment the caller stops
	// waiting.
	if deadlineMS != "" {
		ms, err := strconv.ParseInt(deadlineMS, 10, 64)
		if err != nil {
			s.met.requestErrors.Add(1)
			fail(http.StatusBadRequest, "malformed "+DeadlineHeader+" header: "+deadlineMS)
			return
		}
		if ms <= 0 {
			s.met.requestTimeouts.Add(1)
			notes = append(notes, "rejected by control: deadline (budget spent before admission)")
			span.SetAttr("deadline", "spent")
			fail(http.StatusGatewayTimeout, "request budget spent before admission")
			return
		}
		var cancel context.CancelFunc
		// Nested WithTimeout keeps the tighter of this and Config.Timeout.
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	s.met.columns.Add(int64(len(cols)))
	s.met.batchSize.Observe(float64(len(cols)))
	span.SetAttr("columns", strconv.Itoa(len(cols)))

	results, err := s.InferBatch(ctx, cols)
	if err != nil {
		switch {
		case errors.Is(err, resilience.ErrOverloaded):
			span.SetAttr("shed", "true")
			notes = append(notes, "rejected by control: gate (queue at high water)")
			w.Header().Set("Retry-After", s.retryAfter())
			fail(http.StatusTooManyRequests, "overloaded: queue past high water; retry later")
		case errors.Is(err, context.DeadlineExceeded):
			s.met.requestTimeouts.Add(1)
			notes = append(notes, "rejected by control: deadline (expired before the batch completed)")
			fail(http.StatusGatewayTimeout, "deadline exceeded before the batch completed")
		case errors.Is(err, context.Canceled):
			// The client went away; the status code is never seen.
			fail(http.StatusServiceUnavailable, "request canceled")
		case errors.Is(err, ErrServerClosed):
			fail(http.StatusServiceUnavailable, "server shutting down")
		default:
			s.met.requestErrors.Add(1)
			fail(http.StatusBadRequest, err.Error())
		}
		return
	}

	m := s.current()
	resp := InferResponse{
		Model:        m.pipe.Name(),
		ModelVersion: m.version,
		Predictions:  make([]InferPrediction, len(results)),
	}
	for i, res := range results {
		if res.CacheHit {
			resp.CacheHits++
		}
		if res.Degraded {
			resp.DegradedColumns++
		}
		resp.Predictions[i] = InferPrediction{
			Name:       res.Name,
			Type:       res.Type.String(),
			Confidence: res.Confidence,
			Probs:      probsByClass(res.Probs),
			CacheHit:   res.CacheHit,
			Degraded:   res.Degraded,
			Error:      res.Err,
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.met.request.ObserveSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// retryAfter derives the Retry-After hint for shed responses from live
// queue fullness, so cooperative clients space retries proportionally to
// actual load instead of hammering at a fixed cadence.
func (s *Server) retryAfter() string {
	return strconv.FormatInt(resilience.RetryAfterSeconds(
		s.gate.Depth(), s.gate.Capacity(), int64(s.cfg.RetryAfterMax)), 10)
}

// probsByClass labels a class-indexed probability vector with the paper's
// class names. encoding/json emits map keys in sorted order, so the wire
// form is deterministic.
func probsByClass(probs []float64) map[string]float64 {
	out := make(map[string]float64, len(probs))
	for i, p := range probs {
		out[ftype.FeatureType(i).String()] = p
	}
	return out
}

// handleHealthz answers liveness probes with model metadata. While the
// prediction breaker is open or probing (columns served by the rule
// fallback), Status reports "degraded" instead of "ok"; it recovers to
// "ok" once a half-open probe succeeds and the breaker closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	status := "ok"
	if s.Degraded() {
		status = "degraded"
	}
	m := s.current()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        status,
		Breaker:       s.breaker.State().String(),
		Model:         m.pipe.Name(),
		ModelVersion:  m.version,
		ModelSeq:      m.seq,
		Classes:       m.pipe.Opts.Classes,
		Workers:       s.cfg.Workers,
		CacheEntries:  s.cache.len(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleReload hot-swaps the serving model from a gob snapshot on local
// disk (POST /admin/reload, body ReloadRequest). The swap is atomic and
// zero-downtime — in-flight columns finish on the model they loaded —
// and version-keyed caching guarantees no stale entry survives the swap
// (see Server.Reload). Failures leave the current model serving and are
// counted in sortinghatd_model_reload_errors_total. The endpoint trusts
// its network like the rest of the admin surface: run fleets on an
// internal network or behind an authenticating proxy.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req ReloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.met.reloadErrors.Add(1)
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if req.Path == "" {
		s.met.reloadErrors.Add(1)
		writeError(w, http.StatusBadRequest, "missing \"path\": the gob model snapshot to load")
		return
	}
	pipe, err := core.LoadFile(req.Path)
	if err != nil {
		s.met.reloadErrors.Add(1)
		if s.logger != nil {
			s.logger.Error("model reload failed", "path", req.Path, "err", err.Error())
		}
		writeError(w, http.StatusBadRequest, "loading model: "+err.Error())
		return
	}
	prev, version, seq, purged := s.Reload(pipe, req.Version)
	writeJSON(w, http.StatusOK, ReloadResponse{
		Model:           pipe.Name(),
		Version:         version,
		PreviousVersion: prev,
		Seq:             seq,
		CachePurged:     purged,
	})
}

// handleMetrics answers Prometheus scrapes in text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

// handleTraces serves the in-memory ring of recent request traces as
// JSON span trees (monotonic offsets and durations only; no wall-clock
// timestamps).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	traces := s.tracer.Recent()
	writeJSON(w, http.StatusOK, TracesResponse{Count: len(traces), Traces: traces})
}

// handleFlight serves the flight recorder: the slowest and most recently
// errored requests with trace identity and per-phase timing, the first
// stop when explaining a latency outlier after the fact.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.flight.Snapshot())
}
