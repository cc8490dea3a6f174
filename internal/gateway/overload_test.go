package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortinghat/internal/data"
	"sortinghat/internal/resilience"
	"sortinghat/internal/resilience/faultinject"
	"sortinghat/internal/serve"
)

// metricValue scrapes a handler's /metrics and returns the named
// series' value.
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestChaosBrownoutBoundedAmplification is the overload acceptance
// drill: one of three replicas browns out — single worker, a 120ms
// injected featurize latency per column (the latency:<duration> fault
// shorthand), and a 250ms server-side timeout — while the gateway runs
// with a small fixed retry budget and no hedging. Ten batches through
// the brownout must show:
//
//   - every batch answers 200, complete and in request order (failover
//     while the budget lasts, rule fallback after);
//   - retry amplification is bounded: total shard legs never exceed the
//     initial per-group legs plus the budget burst, and the budget
//     visibly denies attempts once spent;
//   - the slow replica drops expired columns at worker pickup without
//     featurizing them: its columns_total is exactly the featurize
//     fault fires plus deadline_expired_in_queue_total.
func TestChaosBrownoutBoundedAmplification(t *testing.T) {
	model := testModel(t)
	slowInj, err := faultinject.Parse("featurize:latency:120ms", 11)
	if err != nil {
		t.Fatal(err)
	}
	// The brownout victim: one worker, uncached, every featurize slowed
	// 120ms, and a request deadline short enough that most of a queued
	// shard expires before pickup.
	slowSrv := serve.New(model, serve.Config{
		Workers:      1,
		CacheSize:    -1,
		Timeout:      250 * time.Millisecond,
		ModelVersion: "slow",
		Faults:       slowInj,
	})
	t.Cleanup(slowSrv.Close)
	// Ring ownership hashes the listeners' addresses, so the victim is
	// picked after boot: the replica owning the most of the fixture batch
	// takes the slow server's place.
	var slowIdx atomic.Int32
	slowIdx.Store(-1)
	fleet, addrs := startFleet(t, 3, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if int(slowIdx.Load()) == i {
				slowSrv.Handler().ServeHTTP(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	const burst = 6
	g := newTestGateway(t, addrs, func(c *Config) {
		c.Timeout = 5 * time.Second
		// A fixed-size budget: starts at burst, refills ~never, so the
		// drill's speculative legs are bounded by exactly burst tokens.
		c.RetryBudget = resilience.RetryBudgetConfig{Burst: burst, Ratio: 1e-9, MinPerSec: -1}
		// Keep the slow replica's breaker closed for all ten batches so the
		// budget — not the breaker — is what bounds the retries.
		c.Breaker = resilience.BreakerConfig{FailureThreshold: 100}
	})

	req := testBatch(24)
	cols := make([]data.Column, len(req.Columns))
	shard := make([]int, len(fleet))
	for i := range req.Columns {
		cols[i] = toColumn(req.Columns[i])
		shard[g.ring.Owner(ringKey(&cols[i]))]++
	}
	slow := 0
	for r := range shard {
		if shard[r] > shard[slow] {
			slow = r
		}
	}
	if shard[slow] < 5 {
		t.Fatalf("fixture batch gives the slow replica only %d columns; too few to expire any in queue", shard[slow])
	}
	for i := range fleet {
		if replicaByAddr(g, fleet[i].http.URL) == slow {
			slowIdx.Store(int32(i))
		}
	}
	ngroups := len(g.shardGroups(cols))

	const batches = 10
	for b := 0; b < batches; b++ {
		rec, resp := postBatch(t, g.Handler(), req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b, rec.Code, rec.Body.Bytes())
		}
		requireOrdered(t, req, resp)
	}

	// Bounded amplification: ten batches fire ngroups initial legs each;
	// every extra leg drew one of the burst tokens.
	maxLegs := int64(batches*ngroups + burst)
	if legs := g.met.shardRequests.Load(); legs > maxLegs {
		t.Errorf("%d shard legs for %d batches of %d groups — retry amplification beyond the budget's bound of %d", legs, batches, ngroups, maxLegs)
	}
	if denied := metricValue(t, g.Handler(), "sortinghatgw_retry_budget_denied_total"); denied == 0 {
		t.Error("the retry budget never denied an attempt — the drill did not exhaust it")
	}

	// Cooperative shedding on the victim: every admitted column was either
	// featurized exactly once (the fault fires per featurize) or dropped at
	// pickup after its deadline expired in queue — never both, never
	// neither. Workers drain the abandoned queue asynchronously, so poll.
	slowH := slowSrv.Handler()
	deadline := time.Now().Add(5 * time.Second)
	for {
		columns := metricValue(t, slowH, "sortinghatd_columns_total")
		faults := metricValue(t, slowH, "sortinghatd_faults_injected_total")
		expired := metricValue(t, slowH, "sortinghatd_deadline_expired_in_queue_total")
		if columns == faults+expired {
			if expired == 0 {
				t.Error("no column expired in queue on the brownout replica")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow replica never drained: columns_total=%v, faults_injected_total=%v, deadline_expired_in_queue_total=%v", columns, faults, expired)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRetryStormBounded is the retry-storm regression: every replica
// answers 500 to every forward, hedging is on, and the retry budget
// holds two tokens. However hard the dispatch loop wants to retry, the
// fleet must see at most initial-legs + burst sub-requests, the budget
// must record denials, and the batch still completes from the rule
// fallback. Every leg that did go out must carry the request's
// remaining budget in X-Deadline-Ms.
func TestRetryStormBounded(t *testing.T) {
	var (
		mu        sync.Mutex
		deadlines []string
	)
	addrs := make([]string, 3)
	for i := range addrs {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/infer" {
				mu.Lock()
				deadlines = append(deadlines, r.Header.Get(serve.DeadlineHeader))
				mu.Unlock()
			}
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}

	const burst = 2
	const timeout = time.Second
	g := newTestGateway(t, addrs, func(c *Config) {
		c.Hedge = 5 * time.Millisecond
		c.Timeout = timeout
		c.RetryBudget = resilience.RetryBudgetConfig{Burst: burst, Ratio: -1, MinPerSec: -1}
		c.Breaker = resilience.BreakerConfig{FailureThreshold: 100}
	})

	req := testBatch(12)
	cols := make([]data.Column, len(req.Columns))
	for i := range req.Columns {
		cols[i] = toColumn(req.Columns[i])
	}
	ngroups := len(g.shardGroups(cols))

	rec, resp := postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	requireOrdered(t, req, resp)
	if resp.DegradedColumns != len(req.Columns) {
		t.Errorf("%d degraded columns, want all %d — a dead fleet answers from the rule fallback", resp.DegradedColumns, len(req.Columns))
	}

	if legs := g.met.shardRequests.Load(); legs > int64(ngroups+burst) {
		t.Errorf("%d shard legs for %d groups with a budget of %d — the retry storm was not bounded", legs, ngroups, burst)
	}
	if denied := metricValue(t, g.Handler(), "sortinghatgw_retry_budget_denied_total"); denied == 0 {
		t.Error("the retry budget never denied an attempt — the storm did not exhaust it")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(deadlines) == 0 {
		t.Fatal("no forward reached a replica")
	}
	for i, d := range deadlines {
		ms, err := strconv.ParseInt(d, 10, 64)
		if err != nil {
			t.Fatalf("leg %d: X-Deadline-Ms %q is not an integer: %v", i, d, err)
		}
		if ms <= 0 || ms > timeout.Milliseconds() {
			t.Errorf("leg %d: X-Deadline-Ms = %d, want within (0, %d]", i, ms, timeout.Milliseconds())
		}
	}
}

// TestBackoffHonorsRetryAfter drives the cooperative-shedding loop end
// to end on a fake clock: a replica answers one 429 with Retry-After: 2,
// and the gateway must arm that replica's backoff with the hint, route
// around it (rule fallback — there is only one replica) until the fake
// clock passes the window, then resume forwarding.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/infer" {
			http.Error(w, "no probes here", http.StatusNotFound)
			return
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		var req serve.InferRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := serve.InferResponse{Model: "stub", ModelVersion: "s1"}
		for _, c := range req.Columns {
			resp.Predictions = append(resp.Predictions, serve.InferPrediction{Name: c.Name, Type: "Numeric"})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(ts.Close)

	clk := resilience.NewFakeClock(time.Unix(0, 0))
	g := newTestGateway(t, []string{ts.URL}, func(c *Config) {
		c.Backoff = resilience.BackoffConfig{Clock: clk}
		c.Breaker = resilience.BreakerConfig{FailureThreshold: 100}
	})

	req := testBatch(3)

	// Batch 1: the 429 arms the backoff with the replica's own hint and
	// the batch degrades to the local rule fallback.
	rec, resp := postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch 1: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if resp.DegradedColumns != len(req.Columns) {
		t.Errorf("batch 1: %d degraded columns, want all %d", resp.DegradedColumns, len(req.Columns))
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("batch 1: replica saw %d forwards, want 1", got)
	}
	if got := metricValue(t, g.Handler(), "sortinghatgw_backoff_armed_total"); got != 1 {
		t.Errorf("backoff_armed_total = %v, want 1", got)
	}
	if got := metricValue(t, g.Handler(), "sortinghatgw_replica_r0_in_backoff"); got != 1 {
		t.Errorf("replica_r0_in_backoff = %v, want 1 while the window is open", got)
	}

	// Batch 2: still inside the 2s window — the gateway must not send the
	// replica anything.
	rec, resp = postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch 2: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if resp.DegradedColumns != len(req.Columns) {
		t.Errorf("batch 2: %d degraded columns, want all %d", resp.DegradedColumns, len(req.Columns))
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("batch 2: replica saw %d forwards during its backoff window, want still 1", got)
	}

	// Past the window the replica serves again, undegraded.
	clk.Advance(3 * time.Second)
	if got := metricValue(t, g.Handler(), "sortinghatgw_replica_r0_in_backoff"); got != 0 {
		t.Errorf("replica_r0_in_backoff = %v after the window passed, want 0", got)
	}
	rec, resp = postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch 3: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	requireOrdered(t, req, resp)
	if resp.DegradedColumns != 0 {
		t.Errorf("batch 3: %d degraded columns after the backoff expired, want 0", resp.DegradedColumns)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("batch 3: replica saw %d total forwards, want 2", got)
	}
}

// TestFleetSoak is the long-running overload soak behind `make soak`:
// a three-replica fleet with a mild injected featurize latency, several
// concurrent clients, and one replica killed mid-run. Every response
// must be either a complete, ordered 200 or an accounted overload
// answer (429/503/504) — nothing else, for the whole soak window.
func TestFleetSoak(t *testing.T) {
	if os.Getenv("SOAK") == "" {
		t.Skip("soak drill: run via `make soak` (SOAK=1), optionally with SOAK_DURATION")
	}
	dur := 15 * time.Second
	if d, err := time.ParseDuration(os.Getenv("SOAK_DURATION")); err == nil && d > 0 {
		dur = d
	}

	model := testModel(t)
	fleet := make([]*httptest.Server, 3)
	addrs := make([]string, 3)
	for i := range fleet {
		inj, err := faultinject.Parse("featurize:latency:2ms", int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		s := serve.New(model, serve.Config{
			Workers:      2,
			CacheSize:    -1, // every column pays the injected latency
			ModelVersion: fmt.Sprintf("m%d", i),
			Faults:       inj,
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		fleet[i], addrs[i] = ts, ts.URL
	}
	g := newTestGateway(t, addrs, func(c *Config) {
		c.Hedge = 25 * time.Millisecond
		c.Timeout = 2 * time.Second
		c.ProbeInterval = 500 * time.Millisecond
	})
	h := g.Handler()

	var ok, shed, timeouts atomic.Int64
	errs := make(chan string, 16)
	stop := time.Now().Add(dur)
	time.AfterFunc(dur/2, func() {
		// The mid-soak kill: cut the third replica's connections and close
		// it for good. The fleet must keep answering.
		fleet[2].CloseClientConnections()
		fleet[2].Close()
	})

	req := testBatch(16)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(string(body))))
				switch rec.Code {
				case http.StatusOK:
					var resp BatchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						select {
						case errs <- fmt.Sprintf("bad 200 body: %v", err):
						default:
						}
						return
					}
					if len(resp.Predictions) != len(req.Columns) {
						select {
						case errs <- fmt.Sprintf("200 with %d predictions for %d columns", len(resp.Predictions), len(req.Columns)):
						default:
						}
						return
					}
					for i, p := range resp.Predictions {
						if p.Name != req.Columns[i].Name || p.Type == "" {
							select {
							case errs <- fmt.Sprintf("200 out of order at %d: got %q", i, p.Name):
							default:
							}
							return
						}
					}
					ok.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
				case http.StatusGatewayTimeout:
					timeouts.Add(1)
				default:
					select {
					case errs <- fmt.Sprintf("unaccounted status %d: %s", rec.Code, rec.Body.Bytes()):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ok.Load() == 0 {
		t.Fatal("soak produced no successful batches")
	}
	t.Logf("soak %v: %d ok, %d shed, %d timeouts; budget denied %v, shard legs %d",
		dur, ok.Load(), shed.Load(), timeouts.Load(),
		metricValue(t, h, "sortinghatgw_retry_budget_denied_total"),
		g.met.shardRequests.Load())
}
