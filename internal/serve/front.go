package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sortinghat/internal/data"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience"
)

// maxRequestBody bounds /v1/infer request bodies (64 MiB covers a
// 1024-column batch of long text columns with room to spare).
const maxRequestBody = 64 << 20

// flightPhases is the capacity of a request's flight-phase slice:
// decode, the most phases a tier appends, and encode.
const flightPhases = 8

// Front is the HTTP front door the replica (Server) and the gateway
// share: request identity and the access log, JSON and CSV ingress with
// their limits, batch and deadline checks, the mapping from a tier's
// error to an HTTP status, the flight record of every batch, and the
// /healthz, /metrics, /debug/traces and /debug/flight endpoints. A tier
// builds one in its constructor and supplies what differs: names, its
// metric handles, its admission gate, the function that answers a batch
// and its health body. Only Logger may be left nil.
type Front struct {
	// Span names the root span of every infer request.
	Span string
	// IDPrefix prefixes the request IDs minted for requests that carry
	// no X-Request-Id.
	IDPrefix string
	// MaxBatch caps the columns of a batch; MaxCellBytes caps a CSV cell.
	MaxBatch, MaxCellBytes int
	// Gate is the tier's admission gate; its fullness scales the
	// Retry-After hint, capped at RetryAfterMax seconds.
	Gate          *resilience.Gate
	RetryAfterMax int
	Met           *FrontMetrics
	Tracer        *obs.Tracer
	Flight        *obs.FlightRecorder
	// Logger, when non-nil, receives one access-log record per request.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Infer answers one batch that passed the front door's checks.
	Infer InferFunc
	// Health returns the GET /healthz body.
	Health func() any

	reqSeq atomic.Int64
}

// FrontMetrics are the series the front door drives. Each tier registers
// them on its own registry, in its own pinned /metrics order.
type FrontMetrics struct {
	Reg             *obs.Registry
	Requests        *obs.Counter   // completed infer requests (any outcome)
	RequestErrors   *obs.Counter   // 4xx responses (malformed batches)
	RequestTimeouts *obs.Counter   // 504 responses (deadline exceeded)
	Inflight        *obs.Gauge     // infer requests currently being served
	Decode          *obs.Histogram // per-request body read and decode seconds
	Encode          *obs.Histogram // 200 response encode and write seconds
	Request         *obs.Histogram // end-to-end seconds of 200 answers
}

// InferFunc answers one batch for a tier. start is when the request
// arrived, for the body's elapsed time. The tier appends its flight
// phases to phases, which already holds decode, and returns them in the
// Answer with its flight notes, also when it fails. A shed batch fails
// with an error wrapping resilience.ErrOverloaded; an expired or
// abandoned one with the context's error.
type InferFunc func(ctx context.Context, cols []data.Column, start time.Time, phases []obs.Phase) (Answer, error)

// Answer is a tier's outcome for one batch.
type Answer struct {
	Body   any         // the 200 response body; nil on failure
	Phases []obs.Phase // the request's flight phases
	Notes  []string    // the tier's flight notes
}

// Route is a tier-specific endpoint the front door serves next to its
// own, answering a single method.
type Route struct {
	Pattern, Method string
	Handle          http.HandlerFunc
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the front door's HTTP API: POST /v1/infer, POST
// /v1/infer/csv, GET /healthz, GET /metrics, GET /debug/traces, GET
// /debug/flight, the tier's extra routes and (with EnablePprof)
// /debug/pprof/. Every request passes the observability middleware (see
// observe).
func (f *Front) Handler(extra ...Route) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", allow(http.MethodPost, f.infer(false)))
	mux.HandleFunc("/v1/infer/csv", allow(http.MethodPost, f.infer(true)))
	mux.HandleFunc("/healthz", allow(http.MethodGet, f.handleHealthz))
	mux.HandleFunc("/metrics", allow(http.MethodGet, f.handleMetrics))
	mux.HandleFunc("/debug/traces", allow(http.MethodGet, f.handleTraces))
	mux.HandleFunc("/debug/flight", allow(http.MethodGet, f.handleFlight))
	for _, rt := range extra {
		mux.HandleFunc(rt.Pattern, allow(rt.Method, rt.Handle))
	}
	if f.EnablePprof {
		obs.MountPprof(mux)
	}
	return f.observe(mux)
}

// allow answers requests with any other method than method with a JSON
// 405 naming the allowed one. (The mux's own method patterns would
// answer in plain text.)
func allow(method string, h http.HandlerFunc) http.HandlerFunc {
	msg := "use " + method
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, msg)
			return
		}
		h(w, r)
	}
}

// observe is the middleware correlating the signals: it reuses the
// caller's X-Request-Id when one is forwarded (the gateway forwards its
// own, so fleet logs for one request join on a single id) or mints a
// fresh one, propagates it via context to the trace span, echoes it to
// the client, continues an incoming W3C traceparent as the remote parent
// of this request's root span, and emits the access-log record.
func (f *Front) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = f.IDPrefix + strconv.FormatInt(f.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obs.WithRequestID(r.Context(), id)
		if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.ContextWithRemoteParent(ctx, sc)
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if f.Logger != nil {
			f.Logger.Info("request",
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

// infer returns the handler of one infer endpoint: it reads the batch
// (a JSON InferRequest, or with csv a whole table as CSV, the form
// AutoML platforms hold tables in) and hands it to serveBatch. A body
// past maxRequestBody, and a CSV past MaxBatch columns or MaxCellBytes
// per cell, is answered with 413, so oversized uploads fail fast instead
// of ballooning memory; a body that does not parse is a 400. Neither
// reaches the flight recorder.
func (f *Front) infer(csv bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		f.Met.Inflight.Add(1)
		defer f.Met.Inflight.Add(-1)
		defer f.Met.Requests.Add(1)

		ctx, span := f.Tracer.Start(r.Context(), f.Span)
		span.SetAttr("request_id", obs.RequestIDFrom(ctx))
		if csv {
			span.SetAttr("format", "csv")
		}
		defer span.End()

		cols, status, msg := f.read(w, r, csv)
		decode := time.Since(start)
		f.Met.Decode.Observe(decode.Seconds())
		if status != 0 {
			f.Met.RequestErrors.Add(1)
			writeError(w, status, msg)
			return
		}
		f.serveBatch(w, ctx, span, start, decode, r.URL.Path, r.Header.Get(DeadlineHeader), cols)
	}
}

// read decodes the request body, or returns the error status and
// message. Past the column limit the JSON decoder stops early and hands
// over the columns it read, so serveBatch rejects the batch as too
// large.
func (f *Front) read(w http.ResponseWriter, r *http.Request, csv bool) ([]data.Column, int, string) {
	var (
		cols []data.Column
		err  error
	)
	if csv {
		var ds *data.Dataset
		ds, err = data.ReadCSVLimited("request", http.MaxBytesReader(w, r.Body, maxRequestBody), data.Limits{
			MaxColumns:   f.MaxBatch,
			MaxCellBytes: f.MaxCellBytes,
		})
		if err == nil {
			cols = ds.Columns
		}
	} else {
		cols, err = ReadInferRequest(w, r, maxRequestBody, f.MaxBatch)
		if errors.Is(err, ErrTooManyColumns) {
			err = nil
		}
	}
	if err == nil {
		return cols, 0, ""
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, http.StatusRequestEntityTooLarge, "request body exceeds " + strconv.FormatInt(tooLarge.Limit, 10) + " bytes"
	case errors.Is(err, data.ErrTooManyColumns), errors.Is(err, data.ErrCellTooLarge):
		return nil, http.StatusRequestEntityTooLarge, err.Error()
	case csv:
		return nil, http.StatusBadRequest, "parsing csv: " + err.Error()
	default:
		return nil, http.StatusBadRequest, "decoding request: " + err.Error()
	}
}

// serveBatch is the shared tail of the infer endpoints: validate the
// batch, honour a propagated deadline, hand the batch to the tier, and
// render the answer (or map the failure onto the HTTP error surface).
// Once the response is written the request is offered to the flight
// recorder with its identity, its phases (decode, the tier's, then
// encode, the response write) and notes: the rejecting control's first,
// then the tier's.
//
//shvet:hotpath request tail of every infer endpoint on both tiers; all per-request instrumentation lands here
func (f *Front) serveBatch(w http.ResponseWriter, ctx context.Context, span *obs.Span, start time.Time, decode time.Duration, path, deadlineMS string, cols []data.Column) {
	status, errMsg, control := http.StatusOK, "", ""
	phases := make([]obs.Phase, 1, flightPhases)
	phases[0] = obs.Phase{Name: "decode", DurationNS: decode.Nanoseconds()}
	var notes []string
	defer func() {
		if control != "" {
			notes = append([]string{control}, notes...)
		}
		f.Flight.Record(obs.FlightRecord{
			TraceID:    span.Context().TraceID.String(),
			RequestID:  obs.RequestIDFrom(ctx),
			Path:       path,
			Status:     status,
			DurationNS: time.Since(start).Nanoseconds(),
			Columns:    len(cols),
			Phases:     phases,
			Err:        errMsg,
			Notes:      notes,
		})
	}()
	fail := func(st int, msg string) {
		status, errMsg = st, msg
		writeError(w, st, msg)
	}
	if len(cols) == 0 {
		f.Met.RequestErrors.Add(1)
		fail(http.StatusBadRequest, "empty batch: provide at least one column")
		return
	}
	if len(cols) > f.MaxBatch {
		f.Met.RequestErrors.Add(1)
		fail(http.StatusBadRequest, "batch too large: max "+strconv.Itoa(f.MaxBatch)+" columns")
		return
	}
	// Honor a propagated deadline before admitting any work: clamp the
	// request context to the caller's remaining budget so queued work
	// expires the moment the caller stops waiting.
	if deadlineMS != "" {
		budget, ok := parseDeadline(deadlineMS)
		if !ok {
			f.Met.RequestErrors.Add(1)
			fail(http.StatusBadRequest, "malformed "+DeadlineHeader+" header: "+deadlineMS)
			return
		}
		if budget <= 0 {
			f.Met.RequestTimeouts.Add(1)
			control = "rejected by control: deadline (budget spent before admission)"
			span.SetAttr("deadline", "spent")
			w.Header().Set("Retry-After", f.retryAfter())
			fail(http.StatusGatewayTimeout, "request budget spent before admission")
			return
		}
		var cancel context.CancelFunc
		// Nested WithTimeout keeps the tighter of this and the tier's own
		// timeout.
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	span.SetAttr("columns", strconv.Itoa(len(cols)))

	ans, err := f.Infer(ctx, cols, start, phases)
	phases, notes = ans.Phases, ans.Notes
	// The encode phase times the response write, whichever answer it is.
	eStart := time.Now()
	if err != nil {
		switch {
		case errors.Is(err, resilience.ErrOverloaded):
			span.SetAttr("shed", "true")
			control = "rejected by control: gate (queue at high water)"
			w.Header().Set("Retry-After", f.retryAfter())
			fail(http.StatusTooManyRequests, "overloaded: queue past high water; retry later")
		case errors.Is(err, context.DeadlineExceeded):
			f.Met.RequestTimeouts.Add(1)
			control = "rejected by control: deadline (expired before the batch completed)"
			w.Header().Set("Retry-After", f.retryAfter())
			fail(http.StatusGatewayTimeout, "deadline exceeded before the batch completed")
		case errors.Is(err, context.Canceled):
			// The client went away; the status code is never seen.
			fail(http.StatusServiceUnavailable, "request canceled")
		case errors.Is(err, ErrServerClosed):
			fail(http.StatusServiceUnavailable, "server shutting down")
		default:
			f.Met.RequestErrors.Add(1)
			fail(http.StatusBadRequest, err.Error())
		}
	} else {
		writeJSON(w, http.StatusOK, ans.Body)
	}
	encode := time.Since(eStart)
	phases = append(phases, obs.Phase{Name: "encode", DurationNS: encode.Nanoseconds()})
	if err == nil {
		f.Met.Encode.Observe(encode.Seconds())
		f.Met.Request.ObserveSince(start)
	}
}

// parseDeadline reads an X-Deadline-Ms value as a time budget. ok is
// false when the value is not a base-10 int64; a budget ≤ 0 is spent. A
// budget too long for a time.Duration saturates instead of wrapping
// negative, so it leaves only the tier's own timeout in force.
func parseDeadline(v string) (budget time.Duration, ok bool) {
	ms, err := strconv.ParseInt(v, 10, 64)
	switch {
	case err != nil:
		return 0, false
	case ms <= 0:
		return 0, true
	case ms > math.MaxInt64/int64(time.Millisecond):
		return math.MaxInt64, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// retryAfter derives the Retry-After hint for shed and deadline answers
// from live queue fullness, so cooperative clients space retries
// proportionally to actual load instead of hammering at a fixed cadence.
func (f *Front) retryAfter() string {
	return strconv.FormatInt(resilience.RetryAfterSeconds(
		f.Gate.Depth(), f.Gate.Capacity(), int64(f.RetryAfterMax)), 10)
}

// handleHealthz answers liveness probes with the tier's health body.
func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, f.Health())
}

// handleMetrics answers Prometheus scrapes in text exposition format.
func (f *Front) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.Met.Reg.WritePrometheus(w)
}

// handleTraces serves the in-memory ring of recent request traces as
// JSON span trees (monotonic offsets and durations only; no wall-clock
// timestamps).
func (f *Front) handleTraces(w http.ResponseWriter, _ *http.Request) {
	traces := f.Tracer.Recent()
	writeJSON(w, http.StatusOK, TracesResponse{Count: len(traces), Traces: traces})
}

// handleFlight serves the flight recorder: the slowest and most recently
// errored requests with trace identity, per-phase timing and notes, the
// first stop when explaining a latency outlier after the fact.
func (f *Front) handleFlight(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, f.Flight.Snapshot())
}
