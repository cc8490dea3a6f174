package gateway

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sortinghat/internal/resilience/faultinject"
	"sortinghat/internal/serve"
)

// TestChaosReplicaErrorsRerouted arms a deterministic fault that fails
// every forward to one of three replicas and checks the gateway routes
// its columns to the survivors: the batch comes back complete and
// ordered, the rerouted count equals the dead replica's shard, and no
// column degrades to the rule fallback.
func TestChaosReplicaErrorsRerouted(t *testing.T) {
	_, addrs := startFleet(t, 3, nil)
	inj, err := faultinject.Parse("forward@r1:error:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGateway(t, addrs, func(c *Config) { c.Faults = inj })

	req := testBatch(30)
	ownerCols := make([]int, 3)
	for i := range req.Columns {
		col := toColumn(req.Columns[i])
		ownerCols[g.ring.Owner(ringKey(&col))]++
	}
	if ownerCols[1] == 0 {
		t.Fatal("fixture batch gives r1 no columns; the fault would be untested")
	}

	rec, resp := postBatch(t, g.Handler(), req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	requireOrdered(t, req, resp)
	if resp.ReroutedColumns != ownerCols[1] {
		t.Errorf("rerouted %d columns, want r1's full shard of %d", resp.ReroutedColumns, ownerCols[1])
	}
	if resp.DegradedColumns != 0 {
		t.Errorf("%d degraded columns — two healthy replicas should absorb r1's shard", resp.DegradedColumns)
	}
	if got := g.met.rerouted.Load(); got != int64(ownerCols[1]) {
		t.Errorf("rerouted_columns_total = %d, want %d", got, ownerCols[1])
	}
	if g.met.shardErrors.Load() == 0 {
		t.Error("no shard errors counted for the injected failures")
	}
	if inj.Fired() == 0 {
		t.Error("fault injector never fired")
	}
}

// TestChaosReplicaKilledMidBatch is the acceptance drill with a real
// network failure instead of an injected error: one of three replicas
// has its connections cut while its shard request is in flight. The
// gateway must fail over and still return a complete, correctly ordered
// response, with the kill visible in the rerouted counts.
func TestChaosReplicaKilledMidBatch(t *testing.T) {
	var (
		victimHit  = make(chan struct{})
		hitOnce    sync.Once
		victimAddr string
	)
	fleet, addrs := startFleet(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/infer" {
				hitOnce.Do(func() { close(victimHit) })
				time.Sleep(300 * time.Millisecond) // hold the request so the kill lands mid-flight
			}
			h.ServeHTTP(w, r)
		})
	})
	victimAddr = fleet[1].http.URL
	g := newTestGateway(t, addrs, nil)

	req := testBatch(30)
	victim := replicaByAddr(g, victimAddr)
	victimShard := 0
	for i := range req.Columns {
		col := toColumn(req.Columns[i])
		if g.ring.Owner(ringKey(&col)) == victim {
			victimShard++
		}
	}
	if victimShard == 0 {
		t.Fatal("fixture batch gives the victim no columns; the kill would be untested")
	}

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-victimHit
		fleet[1].http.CloseClientConnections() // the mid-batch kill
	}()
	rec, resp := postBatch(t, g.Handler(), req)
	<-killed

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	requireOrdered(t, req, resp)
	if resp.ReroutedColumns != victimShard {
		t.Errorf("rerouted %d columns, want the victim's full shard of %d", resp.ReroutedColumns, victimShard)
	}
	if resp.DegradedColumns != 0 {
		t.Errorf("%d degraded columns — the survivors should absorb the victim's shard", resp.DegradedColumns)
	}
	if g.met.shardErrors.Load() == 0 {
		t.Error("the cut connection never surfaced as a shard error")
	}
}

// lyingReplica wraps a replica handler so its /v1/infer answers are
// rewritten by lie after the honest replica has produced them.
func lyingReplica(h http.Handler, lie func(*serve.InferResponse)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/infer" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp serve.InferResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
			return
		}
		lie(&resp)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
}

// TestChaosLyingReplicaRejected drills a replica whose answers are
// well-formed HTTP 200s but wrong: predictions paired with the wrong
// columns, a class no model has, or a body far larger than the shard can
// justify. The gateway must treat each as a replica failure — counted
// against the liar, its shard failed over to an honest replica — so the
// batch comes back complete, ordered, undegraded and with every column's
// own answer.
func TestChaosLyingReplicaRejected(t *testing.T) {
	cases := []struct {
		name string
		lie  func(*serve.InferResponse)
	}{
		{"swapped-names", func(r *serve.InferResponse) {
			p := r.Predictions
			if len(p) == 1 {
				p[0].Name += "?"
				return
			}
			p[0].Name, p[len(p)-1].Name = p[len(p)-1].Name, p[0].Name
		}},
		{"invalid-class", func(r *serve.InferResponse) {
			r.Predictions[0].Type = "Spreadsheet"
		}},
		{"oversized", func(r *serve.InferResponse) {
			r.Predictions[0].Error = strings.Repeat("x", 8<<20)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Ring ownership depends on the listeners' ports, so the liar
			// is picked after boot: the replica owning the most columns.
			var liarIdx atomic.Int32
			liarIdx.Store(-1)
			fleet, addrs := startFleet(t, 3, func(i int, h http.Handler) http.Handler {
				liesTo := lyingReplica(h, tc.lie)
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if int(liarIdx.Load()) == i {
						liesTo.ServeHTTP(w, r)
						return
					}
					h.ServeHTTP(w, r)
				})
			})
			g := newTestGateway(t, addrs, nil)

			req := testBatch(30)
			shard := make([]int, len(fleet))
			for i := range req.Columns {
				col := toColumn(req.Columns[i])
				shard[g.ring.Owner(ringKey(&col))]++
			}
			liar := 0
			for r := range shard {
				if shard[r] > shard[liar] {
					liar = r
				}
			}
			liarShard := shard[liar]
			for i := range fleet {
				if replicaByAddr(g, fleet[i].http.URL) == liar {
					liarIdx.Store(int32(i))
				}
			}

			rec, resp := postBatch(t, g.Handler(), req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			requireOrdered(t, req, resp)
			if resp.DegradedColumns != 0 {
				t.Errorf("%d degraded columns — the honest replicas should absorb the liar's shard", resp.DegradedColumns)
			}
			if resp.ReroutedColumns != liarShard {
				t.Errorf("rerouted %d columns, want the liar's full shard of %d", resp.ReroutedColumns, liarShard)
			}
			if got := g.replicas[liar].errors.Load(); got == 0 {
				t.Error("the lie was not counted as a failure of the lying replica")
			}

			// Every answer must be the column's own: what an honest lone
			// replica says for the same batch.
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			honest := httptest.NewRecorder()
			fleet[(liarIdx.Load()+1)%3].srv.Handler().ServeHTTP(honest, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
			var want serve.InferResponse
			if err := json.Unmarshal(honest.Body.Bytes(), &want); err != nil {
				t.Fatal(err)
			}
			for i, p := range resp.Predictions {
				if w := want.Predictions[i]; p.Name != w.Name || p.Type != w.Type {
					t.Errorf("column %d answered %s/%s, honest answer %s/%s", i, p.Name, p.Type, w.Name, w.Type)
				}
			}
		})
	}
}

// TestInferCSVNonUTF8Header posts a table whose header is Latin-1, not
// UTF-8 (a common spreadsheet export), through the gateway's CSV endpoint.
// The shard request carries each invalid header byte as U+FFFD, the
// substitution encoding/json makes, so that is the name an honest replica
// echoes. The gateway must accept the echo: the batch comes back complete,
// undegraded, with no replica charged an error, and every column answered
// as a lone replica answers the same table.
func TestInferCSVNonUTF8Header(t *testing.T) {
	fleet, addrs := startFleet(t, 3, nil)
	g := newTestGateway(t, addrs, nil)

	req := testBatch(12)
	var table bytes.Buffer
	cw := csv.NewWriter(&table)
	row := make([]string, len(req.Columns))
	for i := range req.Columns {
		row[i] = fmt.Sprintf("Temp\xe9rature_%d", i)
	}
	if err := cw.Write(row); err != nil {
		t.Fatal(err)
	}
	for j := range req.Columns[0].Values {
		for i := range req.Columns {
			row[i] = req.Columns[i].Values[j]
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer/csv", bytes.NewReader(table.Bytes())))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DegradedColumns != 0 || resp.ReroutedColumns != 0 {
		t.Errorf("%d degraded and %d rerouted columns, want none", resp.DegradedColumns, resp.ReroutedColumns)
	}
	for i := range g.replicas {
		if n := g.replicas[i].errors.Load(); n != 0 {
			t.Errorf("replica %d charged %d errors for honest answers", i, n)
		}
	}

	lone := httptest.NewRecorder()
	fleet[0].srv.Handler().ServeHTTP(lone, httptest.NewRequest(http.MethodPost, "/v1/infer/csv", bytes.NewReader(table.Bytes())))
	var want serve.InferResponse
	if err := json.Unmarshal(lone.Body.Bytes(), &want); err != nil {
		t.Fatalf("lone replica: %v: %s", err, lone.Body.Bytes())
	}
	if len(resp.Predictions) != len(req.Columns) {
		t.Fatalf("%d predictions for %d columns", len(resp.Predictions), len(req.Columns))
	}
	for i, p := range resp.Predictions {
		name := fmt.Sprintf("Temp\ufffdrature_%d", i)
		if w := want.Predictions[i]; p.Name != name || p.Type != w.Type {
			t.Errorf("column %d answered %q/%s, want %q/%s", i, p.Name, p.Type, name, w.Type)
		}
	}
}

// TestWireNameMatchesJSON pins wireName to encoding/json's treatment of
// invalid UTF-8: for every name, it is what a replica decodes from the
// shard request.
func TestWireNameMatchesJSON(t *testing.T) {
	for _, name := range []string{"", "col_1", "caf\u00e9", "\ufffd", "Temp\xe9rature", "\xff\xfe", "a\xc3", "\xe2\x82x", "\xed\xa0\x80"} {
		body, err := json.Marshal(serve.InferColumn{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		var echo serve.InferColumn
		if err := json.Unmarshal(body, &echo); err != nil {
			t.Fatal(err)
		}
		if got := wireName(name); got != echo.Name {
			t.Errorf("wireName(%q) = %q, encoding/json carries %q", name, got, echo.Name)
		}
	}
}
