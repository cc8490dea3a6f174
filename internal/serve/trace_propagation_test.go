package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sortinghat/internal/obs"
)

// TestRequestIDForwarded pins the fleet-log-join contract: a forwarded
// X-Request-Id is reused — echoed back, attached to the trace span, and
// written to the access log — instead of the replica minting its own.
func TestRequestIDForwarded(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, Logger: obs.NewLogger(&logBuf, 0)})
	h := s.Handler()

	body, err := json.Marshal(testBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "gw-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("X-Request-Id"); got != "gw-42" {
		t.Errorf("echoed X-Request-Id = %q, want the forwarded gw-42", got)
	}

	trec := httptest.NewRecorder()
	h.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var tr TracesResponse
	if err := json.Unmarshal(trec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count != 1 || attrValue(tr.Traces[0].Attrs, "request_id") != "gw-42" {
		t.Errorf("trace request_id attr = %q, want gw-42", attrValue(tr.Traces[0].Attrs, "request_id"))
	}
	if !strings.Contains(logBuf.String(), `"request_id":"gw-42"`) {
		t.Errorf("access log missing the forwarded request id:\n%s", logBuf.String())
	}
}

// TestTraceparentContinued pins the replica half of distributed tracing:
// an incoming traceparent makes the request's root span adopt the remote
// trace id and parent itself to the remote span, visible in both
// /debug/traces and the JSONL sink.
func TestTraceparentContinued(t *testing.T) {
	remote := obs.SpanContext{
		TraceID: obs.TraceID{0xab, 0xcd, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
		SpanID:  obs.SpanID{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88},
	}
	var sink bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, TraceSink: &sink})
	h := s.Handler()

	body, err := json.Marshal(testBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	req.Header.Set(obs.TraceparentHeader, remote.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}

	trec := httptest.NewRecorder()
	h.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var tr TracesResponse
	if err := json.Unmarshal(trec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count != 1 {
		t.Fatalf("recorded %d traces, want 1", tr.Count)
	}
	root := tr.Traces[0]
	if root.TraceID != remote.TraceID.String() {
		t.Errorf("root trace_id = %q, want the remote %q", root.TraceID, remote.TraceID)
	}
	if root.ParentID != remote.SpanID.String() {
		t.Errorf("root parent_span_id = %q, want the remote span %q", root.ParentID, remote.SpanID)
	}
	if root.SpanID == "" || root.SpanID == remote.SpanID.String() {
		t.Errorf("root span id %q must be fresh, not the remote one", root.SpanID)
	}

	// The JSONL sink line carries the same identity for tracecat.
	var line obs.SpanJSON
	if err := json.Unmarshal(bytes.TrimSpace(sink.Bytes()), &line); err != nil {
		t.Fatalf("sink line invalid: %v\n%s", err, sink.Bytes())
	}
	if line.TraceID != remote.TraceID.String() || line.ParentID != remote.SpanID.String() {
		t.Errorf("sink identity = (%q,%q), want (%q,%q)",
			line.TraceID, line.ParentID, remote.TraceID, remote.SpanID)
	}

	// A garbage traceparent is ignored: fresh trace, no remote parent.
	req = httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	req.Header.Set(obs.TraceparentHeader, "not-a-traceparent")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status with bad traceparent = %d", rec.Code)
	}
	trec = httptest.NewRecorder()
	h.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if err := json.Unmarshal(trec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	last := tr.Traces[len(tr.Traces)-1]
	if last.ParentID != "" {
		t.Errorf("malformed traceparent produced a remote parent %q", last.ParentID)
	}
	if last.TraceID == remote.TraceID.String() || last.TraceID == "" {
		t.Errorf("malformed traceparent: trace id %q should be freshly minted", last.TraceID)
	}
}

// TestDebugFlight drives a fast request, a slow request (featurize-site
// latency fault) and an errored request through the server and checks
// /debug/flight explains them: the slow one leads the slowest ring with
// per-phase durations and a trace id, the errored one shows up in the
// errored ring.
func TestDebugFlight(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:    1,
		CacheSize:  -1,
		FlightRing: 4,
		Timeout:    50 * time.Millisecond,
		Faults:     slowSite("featurize", 80*time.Millisecond),
	})
	h := s.Handler()

	// Slow request: the featurize fault pushes it past the 50ms deadline
	// → 504, which must enter both rings.
	rec, _ := postInfer(t, h, testBatch(1))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow request status = %d, want 504", rec.Code)
	}

	frec := httptest.NewRecorder()
	h.ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if frec.Code != http.StatusOK {
		t.Fatalf("/debug/flight status = %d", frec.Code)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(frec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding flight snapshot: %v\n%s", err, frec.Body.Bytes())
	}
	if len(snap.Slowest) == 0 || len(snap.Errored) == 0 {
		t.Fatalf("flight recorder empty after a timed-out request: %+v", snap)
	}
	top := snap.Slowest[0]
	if top.Status != http.StatusGatewayTimeout || top.Err == "" {
		t.Errorf("slowest record = status %d err %q, want 504 with an error", top.Status, top.Err)
	}
	if top.TraceID == "" || len(top.TraceID) != 32 {
		t.Errorf("slowest record trace_id = %q, want a 32-hex trace id", top.TraceID)
	}
	if top.RequestID == "" || top.Path != "/v1/infer" || top.Columns != 1 {
		t.Errorf("slowest record identity incomplete: %+v", top)
	}
	if top.DurationNS < (40 * time.Millisecond).Nanoseconds() {
		t.Errorf("slowest record duration %dns, want >= the deadline", top.DurationNS)
	}
	names := make([]string, len(top.Phases))
	for i, p := range top.Phases {
		names[i] = p.Name
	}
	if strings.Join(names, ",") != "decode,queue,hash,cache,featurize,predict,encode" {
		t.Errorf("phase order = %v, want [decode queue hash cache featurize predict encode]", names)
	}
	if top.Phases[0].DurationNS <= 0 {
		t.Errorf("decode phase = %dns, want the body read and decode timed", top.Phases[0].DurationNS)
	}
	if snap.Errored[0].Status != http.StatusGatewayTimeout {
		t.Errorf("errored ring head status = %d, want 504", snap.Errored[0].Status)
	}

	// A 405 is neither slow nor a service failure: flight state unchanged.
	before := len(snap.Slowest) + len(snap.Errored)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/v1/infer", nil))
	frec = httptest.NewRecorder()
	h.ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if err := json.Unmarshal(frec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Slowest) + len(snap.Errored); got != before {
		t.Errorf("a 405 changed flight state: %d records, had %d", got, before)
	}
}
