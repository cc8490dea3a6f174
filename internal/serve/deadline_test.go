package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// postInferDeadline posts a batch with an X-Deadline-Ms header.
func postInferDeadline(t *testing.T, h http.Handler, req InferRequest, deadlineMS string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
	r.Header.Set(DeadlineHeader, deadlineMS)
	h.ServeHTTP(rec, r)
	return rec
}

// TestDeadlineExpiredInQueue is the deadline-propagation drill: a
// single slow worker, a batch wider than the deadline allows, and a
// tight propagated budget. The request must answer 504, and — the
// point of the mechanism — every column still queued when the deadline
// passed must be dropped at worker pickup, counted in
// sortinghatd_deadline_expired_in_queue_total, and never featurized.
func TestDeadlineExpiredInQueue(t *testing.T) {
	const batch = 8
	s := newTestServer(t, Config{
		Workers:   1,
		CacheSize: -1,
		Faults:    slowSite("featurize", 50*time.Millisecond),
	})
	h := s.Handler()

	rec := postInferDeadline(t, h, testBatch(batch), "120")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body.Bytes())
	}
	if got := metricValue(t, h, "sortinghatd_request_timeouts_total"); got != 1 {
		t.Errorf("request_timeouts_total = %g, want 1", got)
	}

	// The worker drains the abandoned queue after the 504 is written;
	// poll until every column is accounted for as either featurized (the
	// fault fired for it) or expired-in-queue.
	deadline := time.Now().Add(5 * time.Second)
	var visits, expired float64
	for {
		visits = metricValue(t, h, "sortinghatd_featurize_seconds_count")
		expired = metricValue(t, h, "sortinghatd_deadline_expired_in_queue_total")
		if visits+expired >= batch || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if visits+expired != batch {
		t.Fatalf("columns unaccounted for: featurized %g + expired %g != %d", visits, expired, batch)
	}
	if expired < 1 {
		t.Errorf("deadline_expired_in_queue_total = %g, want >= 1 (a 120ms budget cannot featurize %d columns at 50ms each)", expired, batch)
	}

	// The flight recorder's errored ring must name the rejecting control.
	frec := httptest.NewRecorder()
	h.ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if frec.Code != http.StatusOK {
		t.Fatalf("/debug/flight status = %d", frec.Code)
	}
	// (The per-request expired-column count note is best-effort: the
	// record is written when the 504 is, usually before the worker drains
	// the abandoned queue, so only the control note is guaranteed.)
	if !bytes.Contains(frec.Body.Bytes(), []byte("rejected by control: deadline")) {
		t.Errorf("/debug/flight errored ring missing the deadline routing note; body %s", frec.Body.Bytes())
	}
}

// TestDeadlineSpentBeforeAdmission checks a request arriving with no
// budget left is rejected up front: 504, a fast fail, and zero columns
// admitted.
func TestDeadlineSpentBeforeAdmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	rec := postInferDeadline(t, h, testBatch(2), "0")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body.Bytes())
	}
	if got := metricValue(t, h, "sortinghatd_columns_total"); got != 0 {
		t.Errorf("columns_total = %g, want 0 (nothing admitted on a spent budget)", got)
	}
}

// TestDeadlineHeaderMalformed checks garbage in X-Deadline-Ms is a 400,
// not a silently ignored header.
func TestDeadlineHeaderMalformed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := postInferDeadline(t, s.Handler(), testBatch(1), "soon")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", rec.Code, rec.Body.Bytes())
	}
}

// TestRetryAfterScalesWithQueueDepth checks the shed response's
// Retry-After hint is derived from live queue fullness (here: full
// queue → the configured max), replacing the old hardcoded "1".
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	block := make(chan struct{})
	var unblockOnce sync.Once
	unblock := func() { unblockOnce.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	s := newTestServer(t, Config{
		Workers:       1,
		CacheSize:     -1,
		MaxBatch:      4,
		QueueDepth:    4,
		RetryAfterMax: 8,
		Faults: injectFunc(func(site string) error {
			if site == "featurize" {
				<-block
			}
			return nil
		}),
	})
	h := s.Handler()

	// Fill the queue: 4 columns admitted, worker parked on the first.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		body, _ := json.Marshal(testBatch(4))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		first <- rec
	}()
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, h, "sortinghatd_queue_depth") < 3 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec, _ := postInfer(t, h, testBatch(2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", rec.Code, rec.Body.Bytes())
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", rec.Header().Get("Retry-After"))
	}
	// Depth was at least 3 of 4 when the shed happened: ceil(3*8/4) = 6.
	if ra < 6 || ra > 8 {
		t.Errorf("Retry-After = %d, want in [6, 8] for a nearly full queue (was hardcoded 1 before)", ra)
	}

	unblock()
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("parked batch finished with %d, want 200", rec.Code)
	}
}

// FuzzDeadlineHeader checks parseDeadline against strconv.ParseInt: it
// never panics, a value ParseInt rejects is malformed, a value ≤ 0 is a
// spent budget, and a positive value always leaves a positive budget,
// exact in milliseconds up to the longest time.Duration.
func FuzzDeadlineHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		budget, ok := parseDeadline(v)
		ms, err := strconv.ParseInt(v, 10, 64)
		if ok != (err == nil) {
			t.Fatalf("parseDeadline(%q) ok = %v, ParseInt error %v", v, ok, err)
		}
		switch {
		case !ok:
		case ms <= 0 && budget > 0:
			t.Fatalf("parseDeadline(%q) = %v, want a spent budget", v, budget)
		case ms > 0 && budget <= 0:
			t.Fatalf("parseDeadline(%q) = %v, want a positive budget", v, budget)
		case ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) && budget != time.Duration(ms)*time.Millisecond:
			t.Fatalf("parseDeadline(%q) = %v, want %dms", v, budget, ms)
		}
	})
}
