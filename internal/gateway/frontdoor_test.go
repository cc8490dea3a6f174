package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sortinghat/internal/obs"
	"sortinghat/internal/serve"
)

// parker holds work while parked, so a test can keep a batch admitted
// (filling a queue) or outlast a deadline, then let it go.
type parker struct {
	mu sync.Mutex
	ch chan struct{} // non-nil while parked
}

func (p *parker) park() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch == nil {
		p.ch = make(chan struct{})
	}
}

func (p *parker) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch != nil {
		close(p.ch)
		p.ch = nil
	}
}

// wait blocks while parked, until release or ctx is done.
func (p *parker) wait(ctx context.Context) {
	p.mu.Lock()
	ch := p.ch
	p.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case <-ch:
	case <-ctx.Done():
	}
}

// parkedFeaturize is a replica fault injector that parks every column at
// the featurize site while its parker is parked.
type parkedFeaturize struct{ p *parker }

func (f parkedFeaturize) Inject(site string) error {
	if site == "featurize" {
		f.p.wait(context.Background())
	}
	return nil
}

// frontTier is one tier behind the HTTP front door, configured alike for
// the cross-tier table: MaxBatch 4, a 4-column queue, 64-byte CSV cells.
type frontTier struct {
	name     string
	h        http.Handler
	idPrefix string // minted X-Request-Id prefix
	metric   string // metric-name prefix
	park     *parker
	// queueFull is the queue depth at which a parked 4-column batch holds
	// the whole gate (a replica worker has already picked up one column).
	queueFull float64
}

// frontTiers boots a replica and a gateway over two replicas.
func frontTiers(t *testing.T) []*frontTier {
	rp := &parker{}
	t.Cleanup(rp.release)
	s := serve.New(testModel(t), serve.Config{
		Workers:      1,
		CacheSize:    -1, // every column reaches featurize, where it parks
		MaxBatch:     4,
		QueueDepth:   4,
		MaxCellBytes: 64,
		Faults:       parkedFeaturize{rp},
	})
	t.Cleanup(s.Close)

	gp := &parker{}
	_, addrs := startFleet(t, 2, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/infer" {
				gp.wait(r.Context())
			}
			h.ServeHTTP(w, r)
		})
	})
	t.Cleanup(gp.release) // runs before the fleet's listeners close
	g := newTestGateway(t, addrs, func(c *Config) {
		c.MaxBatch, c.QueueDepth, c.MaxCellBytes = 4, 4, 64
	})
	return []*frontTier{
		{
			name: "replica", h: s.Handler(), idPrefix: "req-", metric: "sortinghatd",
			park: rp, queueFull: 3,
		},
		{
			name: "gateway", h: g.Handler(), idPrefix: "gw-", metric: "sortinghatgw",
			park: gp, queueFull: 4,
		},
	}
}

// frontReq is one request of the table.
type frontReq struct {
	method, path string
	body         func() io.Reader // nil: no body
	header       map[string]string
}

func (fr frontReq) serve(h http.Handler) *httptest.ResponseRecorder {
	var body io.Reader
	if fr.body != nil {
		body = fr.body()
	}
	r := httptest.NewRequest(fr.method, fr.path, body)
	for k, v := range fr.header {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func textBody(s string) func() io.Reader { return func() io.Reader { return strings.NewReader(s) } }

func batchBody(n int) func() io.Reader {
	return func() io.Reader {
		b, _ := json.Marshal(testBatch(n))
		return bytes.NewReader(b)
	}
}

// repeatByte reads as an endless run of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// maxRequestBody is the front door's request-body limit.
const maxRequestBody = 64 << 20

// overLimitBody streams a JSON body one byte past the request limit
// without holding it in memory.
func overLimitBody() io.Reader {
	const head = `{"columns":[{"name":"`
	return io.MultiReader(strings.NewReader(head), io.LimitReader(repeatByte('a'), maxRequestBody+1-int64(len(head))))
}

func frontPost(path string, body func() io.Reader, header map[string]string) frontReq {
	return frontReq{method: http.MethodPost, path: path, body: body, header: header}
}

func frontGet(path string) frontReq { return frontReq{method: http.MethodGet, path: path} }

// decodeRejects are requests the front door turns away before a batch
// exists: wrong methods and bodies it cannot decode.
var decodeRejects = []struct {
	name  string
	req   frontReq
	want  int
	allow string
}{
	{"infer GET", frontGet("/v1/infer"), http.StatusMethodNotAllowed, http.MethodPost},
	{"csv GET", frontGet("/v1/infer/csv"), http.StatusMethodNotAllowed, http.MethodPost},
	{"healthz POST", frontPost("/healthz", nil, nil), http.StatusMethodNotAllowed, http.MethodGet},
	{"metrics POST", frontPost("/metrics", nil, nil), http.StatusMethodNotAllowed, http.MethodGet},
	{"traces POST", frontPost("/debug/traces", nil, nil), http.StatusMethodNotAllowed, http.MethodGet},
	{"flight POST", frontPost("/debug/flight", nil, nil), http.StatusMethodNotAllowed, http.MethodGet},
	{"bad json", frontPost("/v1/infer", textBody("{nope"), nil), http.StatusBadRequest, ""},
	{"body over limit", frontPost("/v1/infer", overLimitBody, nil), http.StatusRequestEntityTooLarge, ""},
	{"csv too many columns", frontPost("/v1/infer/csv", textBody("a,b,c,d,e\n1,2,3,4,5\n"), nil), http.StatusRequestEntityTooLarge, ""},
	{"csv cell over limit", frontPost("/v1/infer/csv", textBody("a\n"+strings.Repeat("x", 100)+"\n"), nil), http.StatusRequestEntityTooLarge, ""},
}

// batchRejects are batches that decode but are refused before admission.
var batchRejects = []struct {
	name string
	req  frontReq
	want int
}{
	{"empty batch", frontPost("/v1/infer", textBody(`{"columns":[]}`), nil), http.StatusBadRequest},
	{"batch over MaxBatch", frontPost("/v1/infer", batchBody(5), nil), http.StatusBadRequest},
	{"malformed deadline", frontPost("/v1/infer", batchBody(2), map[string]string{serve.DeadlineHeader: "soon"}), http.StatusBadRequest},
	{"negative deadline", frontPost("/v1/infer", batchBody(2), map[string]string{serve.DeadlineHeader: "-5"}), http.StatusGatewayTimeout},
}

// requireJSONError checks a non-2xx answer carries the JSON error body.
func requireJSONError(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("error responses must carry a JSON error body, got %q", rec.Body.Bytes())
	}
}

func flightSnapshot(t *testing.T, h http.Handler) obs.FlightSnapshot {
	t.Helper()
	rec := frontGet("/debug/flight").serve(h)
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding flight snapshot: %v\n%s", err, rec.Body.Bytes())
	}
	return snap
}

// waitMetric polls a metric until it reaches at least want.
func waitMetric(t *testing.T, h http.Handler, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, h, name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %g", name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrontDoorAcrossTiers pins the HTTP surface the replica and the
// gateway share, row by row against both tiers: method checks, ingress
// limits and their statuses, batch checks, X-Deadline-Ms handling,
// shedding, request identity and trace continuation, and which requests
// reach the flight recorder.
func TestFrontDoorAcrossTiers(t *testing.T) {
	for _, tier := range frontTiers(t) {
		t.Run(tier.name, func(t *testing.T) {
			h := tier.h
			columns := func() float64 { return metricValue(t, h, tier.metric+"_columns_total") }

			flightBefore := frontGet("/debug/flight").serve(h).Body.String()
			for _, tc := range decodeRejects {
				t.Run(tc.name, func(t *testing.T) {
					rec := tc.req.serve(h)
					if rec.Code != tc.want {
						t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body.Bytes())
					}
					requireJSONError(t, rec)
					if got := rec.Header().Get("Allow"); got != tc.allow {
						t.Errorf("Allow = %q, want %q", got, tc.allow)
					}
				})
			}
			t.Run("decode rejects leave flight unchanged", func(t *testing.T) {
				if after := frontGet("/debug/flight").serve(h).Body.String(); after != flightBefore {
					t.Errorf("405s and decode errors changed /debug/flight:\nbefore %s\nafter  %s", flightBefore, after)
				}
			})

			for _, tc := range batchRejects {
				t.Run(tc.name, func(t *testing.T) {
					before := columns()
					rec := tc.req.serve(h)
					if rec.Code != tc.want {
						t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body.Bytes())
					}
					requireJSONError(t, rec)
					if got := columns() - before; got != 0 {
						t.Errorf("%g columns counted for a rejected batch, want 0", got)
					}
				})
			}

			t.Run("spent deadline", func(t *testing.T) {
				before := columns()
				rec := frontPost("/v1/infer", batchBody(2), map[string]string{serve.DeadlineHeader: "0"}).serve(h)
				if rec.Code != http.StatusGatewayTimeout {
					t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.Bytes())
				}
				requireJSONError(t, rec)
				if got := columns() - before; got != 0 {
					t.Errorf("%g columns counted on a spent budget, want 0", got)
				}
				if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
					t.Errorf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
				}
			})

			// A budget too long for a time.Duration must not wrap into an
			// expired deadline: it leaves only the tier's own timeout.
			for _, ms := range []string{"60000", "10000000000000", "9223372036854775807"} {
				t.Run("long deadline "+ms, func(t *testing.T) {
					rec := frontPost("/v1/infer", batchBody(2), map[string]string{serve.DeadlineHeader: ms}).serve(h)
					if rec.Code != http.StatusOK {
						t.Errorf("status = %d, want 200 (body %s)", rec.Code, rec.Body.Bytes())
					}
				})
			}

			t.Run("shed", func(t *testing.T) {
				tier.park.park()
				defer tier.park.release() // a failed wait must not leave later rows parked
				start := columns()
				first := make(chan int, 1)
				go func() { first <- frontPost("/v1/infer", batchBody(4), nil).serve(h).Code }()
				waitMetric(t, h, tier.metric+"_queue_depth", tier.queueFull)
				// The parked batch is admitted but unanswered: it counts
				// already, at the gate, not when the tier returns.
				waitMetric(t, h, tier.metric+"_columns_total", start+4)
				before := columns()
				rec := frontPost("/v1/infer", batchBody(2), nil).serve(h)
				counted := columns() - before
				tier.park.release()
				if rec.Code != http.StatusTooManyRequests {
					t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.Bytes())
				}
				requireJSONError(t, rec)
				if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
					t.Errorf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
				}
				if counted != 0 {
					t.Errorf("%g columns counted for a shed batch, want 0", counted)
				}
				if code := <-first; code != http.StatusOK {
					t.Errorf("parked batch answered %d, want 200", code)
				}
			})

			t.Run("deadline expires in flight", func(t *testing.T) {
				tier.park.park()
				rec := frontPost("/v1/infer", batchBody(1), map[string]string{
					serve.DeadlineHeader: "50",
					"X-Request-Id":       "late-" + tier.name,
				}).serve(h)
				tier.park.release()
				if rec.Code != http.StatusGatewayTimeout {
					t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.Bytes())
				}
				requireJSONError(t, rec)
				var notes []string
				for _, fr := range flightSnapshot(t, h).Errored {
					if fr.RequestID == "late-"+tier.name {
						notes = fr.Notes
					}
				}
				const note = "rejected by control: deadline (expired before the batch completed)"
				if len(notes) == 0 || notes[0] != note {
					t.Errorf("flight notes = %q, want first %q", notes, note)
				}
			})

			t.Run("request id echoed", func(t *testing.T) {
				rec := frontPost("/v1/infer", batchBody(2), map[string]string{"X-Request-Id": "client-7"}).serve(h)
				if rec.Code != http.StatusOK {
					t.Fatalf("status = %d (body %s)", rec.Code, rec.Body.Bytes())
				}
				if got := rec.Header().Get("X-Request-Id"); got != "client-7" {
					t.Errorf("X-Request-Id = %q, want the client's", got)
				}
			})

			t.Run("request id minted", func(t *testing.T) {
				for _, req := range []frontReq{frontPost("/v1/infer", batchBody(2), nil), frontGet("/healthz"), frontGet("/v1/infer")} {
					rec := req.serve(h)
					id := rec.Header().Get("X-Request-Id")
					if n, err := strconv.Atoi(strings.TrimPrefix(id, tier.idPrefix)); !strings.HasPrefix(id, tier.idPrefix) || err != nil || n < 1 {
						t.Errorf("%s %s: X-Request-Id = %q, want %s<n>", req.method, req.path, id, tier.idPrefix)
					}
				}
			})

			t.Run("traceparent continued", func(t *testing.T) {
				remote := obs.SpanContext{
					TraceID: obs.TraceID{0xfd, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
					SpanID:  obs.SpanID{0xfd, 2, 3, 4, 5, 6, 7, 8},
				}
				rec := frontPost("/v1/infer", batchBody(2), map[string]string{obs.TraceparentHeader: remote.Traceparent()}).serve(h)
				if rec.Code != http.StatusOK {
					t.Fatalf("status = %d (body %s)", rec.Code, rec.Body.Bytes())
				}
				var tr serve.TracesResponse
				if err := json.Unmarshal(frontGet("/debug/traces").serve(h).Body.Bytes(), &tr); err != nil {
					t.Fatal(err)
				}
				for _, root := range tr.Traces {
					if root.TraceID == remote.TraceID.String() {
						if root.ParentID != remote.SpanID.String() {
							t.Errorf("root parent_span_id = %q, want the remote span %q", root.ParentID, remote.SpanID)
						}
						return
					}
				}
				t.Errorf("no recorded trace continues the remote trace %s", remote.TraceID)
			})
		})
	}
}
