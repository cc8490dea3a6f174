package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/resilience"
	"sortinghat/internal/serve"
	"sortinghat/internal/synth"
)

// testPipeline trains one small Random Forest per test binary; every
// replica in every test shares it read-only.
var (
	pipeOnce sync.Once
	pipe     *core.Pipeline
	pipeErr  error
)

func testModel(t testing.TB) *core.Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		cfg := synth.DefaultCorpusConfig()
		cfg.N = 400
		opts := core.DefaultOptions()
		opts.RFTrees, opts.RFDepth = 10, 15
		pipe, pipeErr = core.Train(synth.GenerateCorpus(cfg), opts)
	})
	if pipeErr != nil {
		t.Fatalf("training test model: %v", pipeErr)
	}
	return pipe
}

// fleetReplica is one live sortinghatd replica for a gateway test: the
// serving core plus its HTTP listener.
type fleetReplica struct {
	srv  *serve.Server
	http *httptest.Server
}

// startFleet boots n replicas of the shared test model. middleware, when
// non-nil, wraps each replica's handler (indexed by boot order) — the
// hook tests use to slow down or sabotage one replica.
func startFleet(t testing.TB, n int, middleware func(i int, h http.Handler) http.Handler) ([]*fleetReplica, []string) {
	t.Helper()
	fleet := make([]*fleetReplica, n)
	addrs := make([]string, n)
	for i := range fleet {
		s := serve.New(testModel(t), serve.Config{Workers: 2, CacheSize: 1024, ModelVersion: fmt.Sprintf("m%d", i)})
		h := http.Handler(s.Handler())
		if middleware != nil {
			h = middleware(i, h)
		}
		ts := httptest.NewServer(h)
		fleet[i] = &fleetReplica{srv: s, http: ts}
		addrs[i] = ts.URL
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
	}
	return fleet, addrs
}

// newTestGateway builds a gateway over addrs with test-friendly
// defaults; tweak overrides cfg before construction.
func newTestGateway(t testing.TB, addrs []string, tweak func(*Config)) *Gateway {
	t.Helper()
	cfg := Config{
		Replicas:      addrs,
		ProbeInterval: time.Hour, // one startup sweep, then quiet
		Hedge:         -1,        // hedging off unless a test opts in
	}
	if tweak != nil {
		tweak(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// replicaByAddr maps a fleet back to ring labels: index i of the sorted
// address list is label "ri".
func replicaByAddr(g *Gateway, addr string) int {
	for i, a := range g.ring.Replicas() {
		if a == addr {
			return i
		}
	}
	return -1
}

// testBatch builds an n-column batch of deterministic synthetic columns
// (mirrors the serve package's fixture so predictions are comparable).
func testBatch(n int) serve.InferRequest {
	req := serve.InferRequest{Columns: make([]serve.InferColumn, n)}
	for i := range req.Columns {
		vals := make([]string, 48)
		for j := range vals {
			switch i % 3 {
			case 0:
				vals[j] = fmt.Sprintf("%d.%02d", j*7+i, j%100)
			case 1:
				vals[j] = fmt.Sprintf("cat_%d", j%5)
			default:
				vals[j] = fmt.Sprintf("2021-0%d-1%d", j%9+1, j%9)
			}
		}
		req.Columns[i] = serve.InferColumn{Name: fmt.Sprintf("col_%d", i), Values: vals}
	}
	return req
}

// spanningBatch is the smallest testBatch of at least n columns that
// gives every replica in addrs a column. Ring ownership hashes the
// replicas' random test ports, so a fixed batch can miss a replica.
func spanningBatch(t *testing.T, addrs []string, n int) serve.InferRequest {
	t.Helper()
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for size := n; size <= 16*n; size++ {
		req := testBatch(size)
		owned := make(map[int]bool, len(addrs))
		for i := range req.Columns {
			col := toColumn(req.Columns[i])
			owned[ring.Owner(ringKey(&col))] = true
		}
		if len(owned) == len(addrs) {
			return req
		}
	}
	t.Fatalf("no batch of %d to %d columns spans all %d replicas", n, 16*n, len(addrs))
	return serve.InferRequest{}
}

// postBatch drives POST /v1/infer through the gateway handler.
func postBatch(t *testing.T, h http.Handler, req serve.InferRequest) (*httptest.ResponseRecorder, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	var resp BatchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v\nbody: %s", err, rec.Body.Bytes())
		}
	}
	return rec, resp
}

// requireOrdered asserts the response's predictions are index-aligned
// with the request regardless of sharding.
func requireOrdered(t *testing.T, req serve.InferRequest, resp BatchResponse) {
	t.Helper()
	if len(resp.Predictions) != len(req.Columns) {
		t.Fatalf("%d predictions for %d columns", len(resp.Predictions), len(req.Columns))
	}
	for i, p := range resp.Predictions {
		if p.Name != req.Columns[i].Name {
			t.Fatalf("prediction %d is %q, want %q — response order must match request order", i, p.Name, req.Columns[i].Name)
		}
		if p.Type == "" {
			t.Fatalf("prediction %d (%s) has no type", i, p.Name)
		}
	}
}

// TestGatewayShardsAndReassembles is the tentpole contract end to end:
// a batch sharded across two replicas comes back complete, in request
// order, with every column's answer identical to what a lone daemon
// over the same model would say, and the per-replica caches hold
// disjoint shards of the batch.
func TestGatewayShardsAndReassembles(t *testing.T) {
	fleet, addrs := startFleet(t, 2, nil)
	g := newTestGateway(t, addrs, nil)
	h := g.Handler()

	req := spanningBatch(t, addrs, 24)
	rec, resp := postBatch(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	requireOrdered(t, req, resp)
	if resp.Shards != 2 {
		t.Errorf("batch used %d shards, want 2 (both replicas should own columns)", resp.Shards)
	}
	if resp.ReroutedColumns != 0 || resp.DegradedColumns != 0 {
		t.Errorf("healthy fleet rerouted %d / degraded %d columns, want 0/0", resp.ReroutedColumns, resp.DegradedColumns)
	}

	// Same model everywhere: the fleet's answers must match a lone daemon.
	lone := serve.New(testModel(t), serve.Config{Workers: 2, CacheSize: -1})
	defer lone.Close()
	loneRec := httptest.NewRecorder()
	body, _ := json.Marshal(req)
	lone.Handler().ServeHTTP(loneRec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	var loneResp serve.InferResponse
	if err := json.Unmarshal(loneRec.Body.Bytes(), &loneResp); err != nil {
		t.Fatal(err)
	}
	for i := range resp.Predictions {
		if resp.Predictions[i].Type != loneResp.Predictions[i].Type {
			t.Errorf("column %s: gateway says %s, lone daemon says %s", req.Columns[i].Name, resp.Predictions[i].Type, loneResp.Predictions[i].Type)
		}
	}

	// Disjoint caches: every column is cached on exactly one replica.
	entries := 0
	for _, r := range fleet {
		n := cacheEntries(t, r.http.URL)
		if n == 0 {
			t.Errorf("replica %s cached nothing — sharding sent it no columns", r.http.URL)
		}
		entries += n
	}
	if entries != len(req.Columns) {
		t.Errorf("fleet caches hold %d entries for %d distinct columns — shards overlap or columns were dropped", entries, len(req.Columns))
	}

	// A repeat batch is answered entirely from the fleet's caches.
	if _, again := postBatch(t, h, req); again.CacheHits != len(req.Columns) {
		t.Errorf("repeat batch: %d cache hits, want %d", again.CacheHits, len(req.Columns))
	}
}

// cacheEntries reads one replica's cache size off its /healthz.
func cacheEntries(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get(addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.CacheEntries
}

// TestGatewayRoutingMatchesColumnHash pins the routing rule itself:
// every column lands on the replica the ring names for its content
// hash (checked via each replica's request counters: only owners get
// traffic).
func TestGatewayRoutingMatchesColumnHash(t *testing.T) {
	_, addrs := startFleet(t, 3, nil)
	g := newTestGateway(t, addrs, nil)
	h := g.Handler()

	req := testBatch(30)
	if rec, _ := postBatch(t, h, req); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	// Rebuild the expected groups from the exported hash + ring.
	wantGroups := map[int]int{}
	for i := range req.Columns {
		col := toColumn(req.Columns[i])
		wantGroups[g.ring.Owner(ringKey(&col))]++
	}
	for i, r := range g.replicas {
		wantReqs := int64(0)
		if wantGroups[i] > 0 {
			wantReqs = 1
		}
		if got := r.requests.Load(); got != wantReqs {
			t.Errorf("replica %s received %d sub-requests, want %d (owns %d columns)", r.label, got, wantReqs, wantGroups[i])
		}
	}
}

// TestGatewayVersionSkewVisible runs a fleet whose replicas serve
// different model versions (a canary rollout mid-flight) and checks the
// response accounts for every column's answering version.
func TestGatewayVersionSkewVisible(t *testing.T) {
	_, addrs := startFleet(t, 2, nil) // replica i serves version "mi"
	g := newTestGateway(t, addrs, nil)

	req := spanningBatch(t, addrs, 24)
	rec, resp := postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	total := 0
	for v, n := range resp.ModelVersions {
		if v != "m0" && v != "m1" {
			t.Errorf("unexpected model version %q in response", v)
		}
		total += n
	}
	if total != len(req.Columns) {
		t.Errorf("model_versions accounts for %d of %d columns", total, len(req.Columns))
	}
	if len(resp.ModelVersions) != 2 {
		t.Errorf("saw versions %v, want both m0 and m1 (both replicas own columns)", resp.ModelVersions)
	}
}

// TestGatewayHedgesSlowShard wraps one replica in a delay longer than
// the hedge deadline and checks the gateway speculatively asks another
// replica instead of waiting: the batch completes fast, a hedge is
// counted, and the slow replica's columns are answered off-owner.
func TestGatewayHedgesSlowShard(t *testing.T) {
	const slowDelay = 2 * time.Second
	var slowAddr string
	fleet, addrs := startFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/infer" {
				time.Sleep(slowDelay)
			}
			h.ServeHTTP(w, r)
		})
	})
	slowAddr = fleet[0].http.URL
	g := newTestGateway(t, addrs, func(c *Config) { c.Hedge = 50 * time.Millisecond })

	req := spanningBatch(t, addrs, 24) // the slow replica must own columns
	start := time.Now()
	rec, resp := postBatch(t, g.Handler(), req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	requireOrdered(t, req, resp)
	if elapsed >= slowDelay {
		t.Errorf("batch took %v — the hedge should beat the %v slow shard", elapsed, slowDelay)
	}
	if resp.HedgedRequests == 0 {
		t.Error("no hedged requests counted")
	}
	slow := replicaByAddr(g, slowAddr)
	if slow < 0 {
		t.Fatal("slow replica not on ring")
	}
	if resp.ReroutedColumns == 0 {
		t.Error("hedge won but no columns counted as rerouted")
	}
	if resp.DegradedColumns != 0 {
		t.Errorf("%d degraded columns on a healthy (if slow) fleet", resp.DegradedColumns)
	}
}

// TestGatewayFallbackWhenFleetDead kills every replica and checks the
// gateway still answers the full batch from its local rule fallback:
// complete, ordered, every column tagged degraded.
func TestGatewayFallbackWhenFleetDead(t *testing.T) {
	fleet, addrs := startFleet(t, 2, nil)
	g := newTestGateway(t, addrs, func(c *Config) {
		c.Breaker = resilience.BreakerConfig{FailureThreshold: 100} // keep trying, keep failing
	})
	for _, r := range fleet {
		r.http.Close()
	}

	req := testBatch(12)
	rec, resp := postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	requireOrdered(t, req, resp)
	if resp.DegradedColumns != len(req.Columns) {
		t.Errorf("%d degraded columns, want all %d", resp.DegradedColumns, len(req.Columns))
	}
	if resp.Model != "rules" {
		t.Errorf("model = %q, want rules (local fallback)", resp.Model)
	}
	if n := resp.ModelVersions["fallback"]; n != len(req.Columns) {
		t.Errorf("fallback version answered %d columns, want %d", n, len(req.Columns))
	}
	if got := g.met.fallbackColumns.Load(); got != int64(len(req.Columns)) {
		t.Errorf("fallback_columns_total = %d, want %d", got, len(req.Columns))
	}
}

// toColumn converts a wire column to the routing form.
func toColumn(c serve.InferColumn) data.Column {
	return data.Column{Name: c.Name, Values: c.Values}
}
