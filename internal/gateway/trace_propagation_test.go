package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sortinghat/internal/obs"
	"sortinghat/internal/serve"
)

// syncBuffer is a bytes.Buffer safe to write from server goroutines and
// read from the test goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// jsonlTraces decodes every non-empty line of a JSONL trace sink,
// retrying briefly because a replica's root span is sunk after its HTTP
// response is flushed.
func jsonlTraces(t *testing.T, buf *syncBuffer, want int) []obs.SpanJSON {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var out []obs.SpanJSON
		ok := true
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			var s obs.SpanJSON
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				ok = false // torn write still in flight
				break
			}
			out = append(out, s)
		}
		if ok && len(out) >= want {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace sink has %d complete lines, want %d:\n%s", len(out), want, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spansNamed walks a span tree collecting every span with the given
// name.
func spansNamed(s obs.SpanJSON, name string) []obs.SpanJSON {
	var out []obs.SpanJSON
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, spansNamed(c, name)...)
	}
	return out
}

// TestFleetTraceStitching is the acceptance test of distributed
// tracing: one batch through a gateway and two live replicas produces
// one trace id everywhere — the gateway's sink holds the root with its
// shard/forward children, and every replica sink line adopts that trace
// id and parents itself to one of the gateway's forward spans. The
// forwarded X-Request-Id joins the fleet's access logs on one key.
func TestFleetTraceStitching(t *testing.T) {
	replicaSinks := make([]*syncBuffer, 2)
	replicaLogs := make([]*syncBuffer, 2)
	fleet := make([]*httptest.Server, 2)
	addrs := make([]string, 2)
	for i := range fleet {
		replicaSinks[i] = &syncBuffer{}
		replicaLogs[i] = &syncBuffer{}
		s := serve.New(testModel(t), serve.Config{
			Workers:      2,
			ModelVersion: fmt.Sprintf("m%d", i),
			TraceSink:    replicaSinks[i],
			Logger:       obs.NewLogger(replicaLogs[i], 0),
		})
		ts := httptest.NewServer(s.Handler())
		fleet[i] = ts
		addrs[i] = ts.URL
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
	}
	var gwSink syncBuffer
	g := newTestGateway(t, addrs, func(cfg *Config) { cfg.TraceSink = &gwSink })
	h := g.Handler()

	body, err := json.Marshal(spanningBatch(t, addrs, 24))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "cli-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shards != 2 {
		t.Fatalf("batch sharded into %d groups, want both replicas involved", resp.Shards)
	}
	if resp.DegradedColumns != 0 {
		t.Fatalf("%d degraded columns; the fleet should be healthy", resp.DegradedColumns)
	}

	// The gateway's sink holds the root of the distributed trace.
	gwTraces := jsonlTraces(t, &gwSink, 1)
	root := gwTraces[len(gwTraces)-1]
	if root.Name != "gateway" || root.TraceID == "" {
		t.Fatalf("gateway sink root = %q trace %q, want a gateway root with a trace id", root.Name, root.TraceID)
	}
	forwards := spansNamed(root, "forward")
	if len(forwards) < 2 {
		t.Fatalf("gateway trace has %d forward spans, want one per shard attempt (>=2):\n%s", len(forwards), gwSink.String())
	}
	forwardIDs := make(map[string]bool, len(forwards))
	for _, f := range forwards {
		if f.SpanID == "" {
			t.Fatalf("forward span missing its span id: %+v", f)
		}
		forwardIDs[f.SpanID] = true
	}

	// Every replica's root span joined the gateway's trace, parented to
	// the exact forward span that carried its sub-request.
	stitched := 0
	for i, sink := range replicaSinks {
		for _, line := range jsonlTraces(t, sink, 1) {
			stitched++
			if line.TraceID != root.TraceID {
				t.Errorf("replica %d trace_id = %q, want the gateway's %q", i, line.TraceID, root.TraceID)
			}
			if !forwardIDs[line.ParentID] {
				t.Errorf("replica %d parent_span_id = %q, not one of the gateway's forward spans", i, line.ParentID)
			}
		}
	}
	if stitched < 2 {
		t.Errorf("only %d replica trace lines; both replicas should have served a shard", stitched)
	}

	// The client's X-Request-Id survived the whole path: echoed by the
	// gateway, forwarded on sub-requests, in every replica access log.
	if got := rec.Header().Get("X-Request-Id"); got != "cli-7" {
		t.Errorf("gateway echoed X-Request-Id %q, want the forwarded cli-7", got)
	}
	for i, lg := range replicaLogs {
		if !strings.Contains(lg.String(), `"request_id":"cli-7"`) {
			t.Errorf("replica %d access log missing the fleet request id:\n%s", i, lg.String())
		}
	}
}

// TestGatewayDebugFlight checks the gateway's flight recorder: a served
// batch lands in the slowest ring with its trace id, the gateway's
// phase split (dispatch/hedge/reassemble), and per-shard routing notes;
// a timed-out batch lands in the errored ring.
func TestGatewayDebugFlight(t *testing.T) {
	_, addrs := startFleet(t, 2, nil)
	g := newTestGateway(t, addrs, func(cfg *Config) { cfg.FlightRing = 8 })
	h := g.Handler()

	rec, _ := postBatch(t, h, testBatch(6))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
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
	if len(snap.Slowest) != 1 || len(snap.Errored) != 0 {
		t.Fatalf("flight = %d slowest / %d errored, want 1/0", len(snap.Slowest), len(snap.Errored))
	}
	top := snap.Slowest[0]
	if len(top.TraceID) != 32 || top.Path != "/v1/infer" || top.Columns != 6 || top.Status != http.StatusOK {
		t.Errorf("flight record identity incomplete: %+v", top)
	}
	names := make([]string, len(top.Phases))
	for i, p := range top.Phases {
		names[i] = p.Name
	}
	if strings.Join(names, ",") != "decode,route,dispatch,hedge,reassemble,encode" {
		t.Errorf("phase order = %v, want [decode route dispatch hedge reassemble encode]", names)
	}
	if top.Phases[0].DurationNS <= 0 {
		t.Errorf("decode phase = %dns, want the body read and decode timed", top.Phases[0].DurationNS)
	}
	if enc := top.Phases[len(top.Phases)-1]; enc.DurationNS <= 0 {
		t.Errorf("encode phase = %dns, want the response write timed", enc.DurationNS)
	}
	if len(top.Notes) == 0 || !strings.HasPrefix(top.Notes[0], "shard r") {
		t.Errorf("flight notes = %v, want per-shard routing notes", top.Notes)
	}

	// A batch that cannot meet its deadline enters the errored ring.
	gSlow := newTestGateway(t, addrs, func(cfg *Config) {
		cfg.FlightRing = 8
		cfg.Timeout = time.Nanosecond
	})
	rec, _ = postBatch(t, gSlow.Handler(), testBatch(2))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status with 1ns deadline = %d, want 504", rec.Code)
	}
	frec = httptest.NewRecorder()
	gSlow.Handler().ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if err := json.Unmarshal(frec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Errored) != 1 || snap.Errored[0].Status != http.StatusGatewayTimeout {
		t.Fatalf("errored ring = %+v, want the 504", snap.Errored)
	}
}
