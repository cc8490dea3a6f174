package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sortinghat/internal/data"
)

// saveTestModel writes the shared test pipeline to a temp gob file and
// returns its path — the artifact POST /admin/reload loads.
func saveTestModel(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := testModel(t).SaveFile(path); err != nil {
		t.Fatalf("saving test model: %v", err)
	}
	return path
}

// postReload drives POST /admin/reload through the handler.
func postReload(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, ReloadResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", strings.NewReader(body)))
	var resp ReloadResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding reload response: %v\nbody: %s", err, rec.Body.Bytes())
		}
	}
	return rec, resp
}

// TestReloadSwapsModelAndInvalidatesCache is the hot-reload contract end
// to end over the HTTP surface: the swap bumps version and sequence with
// zero downtime, and cached predictions from before the swap are never
// served again — the repeat batch that hit the cache pre-reload misses
// afterwards, because cache keys carry the model sequence.
func TestReloadSwapsModelAndInvalidatesCache(t *testing.T) {
	path := saveTestModel(t)
	s := newTestServer(t, Config{Workers: 2, CacheSize: 256, ModelVersion: "baseline"})
	h := s.Handler()

	batch := testBatch(6)
	if rec, resp := postInfer(t, h, batch); rec.Code != http.StatusOK || resp.CacheHits != 0 {
		t.Fatalf("first batch: status %d, cache hits %d", rec.Code, resp.CacheHits)
	}
	if _, resp := postInfer(t, h, batch); resp.CacheHits != 6 {
		t.Fatalf("pre-reload repeat: cache hits = %d, want 6", resp.CacheHits)
	}
	if hl := getHealth(t, h); hl.ModelVersion != "baseline" || hl.ModelSeq != 1 {
		t.Fatalf("pre-reload healthz: version %q seq %d, want baseline/1", hl.ModelVersion, hl.ModelSeq)
	}

	rec, resp := postReload(t, h, `{"path":`+jsonQuote(t, path)+`,"version":"canary"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if resp.Version != "canary" || resp.PreviousVersion != "baseline" || resp.Seq != 2 {
		t.Errorf("reload response = %+v, want canary after baseline at seq 2", resp)
	}
	if resp.CachePurged != 6 {
		t.Errorf("reload purged %d entries, want 6", resp.CachePurged)
	}
	if got := s.met.reloads.Load(); got != 1 {
		t.Errorf("model_reloads_total = %d, want 1", got)
	}

	if hl := getHealth(t, h); hl.ModelVersion != "canary" || hl.ModelSeq != 2 {
		t.Fatalf("post-reload healthz: version %q seq %d, want canary/2", hl.ModelVersion, hl.ModelSeq)
	}

	// The same batch must recompute: pre-reload entries are version-dead.
	if _, resp := postInfer(t, h, batch); resp.CacheHits != 0 {
		t.Errorf("post-reload batch: cache hits = %d, want 0 (old version must not serve)", resp.CacheHits)
	} else if resp.ModelVersion != "canary" {
		t.Errorf("post-reload response model_version = %q, want canary", resp.ModelVersion)
	}
	// And re-cache under the new version.
	if _, resp := postInfer(t, h, batch); resp.CacheHits != 6 {
		t.Errorf("post-reload repeat: cache hits = %d, want 6", resp.CacheHits)
	}
}

// jsonQuote JSON-quotes a path for embedding in a request body.
func jsonQuote(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReloadDerivesVersion pins the "v<seq>" fallback label when the
// operator supplies none.
func TestReloadDerivesVersion(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	_, version, seq, _ := s.Reload(testModel(t), "")
	if version != "v2" || seq != 2 {
		t.Errorf("derived version %q at seq %d, want v2 at 2", version, seq)
	}
}

// TestReloadHandlerErrors walks the reload endpoint's rejection surface:
// wrong method, malformed body, missing path, unloadable file. Every
// rejection leaves the serving model untouched and is counted.
func TestReloadHandlerErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1, ModelVersion: "keep"})
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/reload", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", rec.Code)
	}

	cases := []string{
		`{not json`,
		`{}`,
		`{"path":"/nonexistent/model.gob"}`,
	}
	for _, body := range cases {
		if rec, _ := postReload(t, h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, rec.Code)
		}
	}
	if got := s.met.reloadErrors.Load(); got != int64(len(cases)) {
		t.Errorf("model_reload_errors_total = %d, want %d", got, len(cases))
	}
	if hl := getHealth(t, h); hl.ModelVersion != "keep" || hl.ModelSeq != 1 {
		t.Errorf("failed reloads moved the model: version %q seq %d", hl.ModelVersion, hl.ModelSeq)
	}
}

// TestConcurrentInferDuringReload hammers the server with inference while
// the model is swapped repeatedly. Run under -race by `make chaos`, it
// pins the torn-model guarantee: every column is answered by exactly one
// coherent (pipeline, version) pair — structurally valid probabilities
// with the confidence matching the predicted class — and once the swaps
// stop, the cache converges on the final version (a full repeat batch
// hits for every column).
func TestConcurrentInferDuringReload(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, CacheSize: 1024})
	pipe := testModel(t)
	classes := pipe.Opts.Classes

	const (
		inferers = 4
		rounds   = 8
		swaps    = 25
	)
	var wg sync.WaitGroup
	errc := make(chan string, inferers*rounds)
	for g := 0; g < inferers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := testBatch(16)
				cols := make([]data.Column, len(req.Columns))
				for i, c := range req.Columns {
					cols[i] = data.Column{Name: c.Name, Values: c.Values}
				}
				results, err := s.InferBatch(context.Background(), cols)
				if err != nil {
					errc <- "InferBatch: " + err.Error()
					return
				}
				for i, res := range results {
					if res.Name != cols[i].Name {
						errc <- "misaligned result: " + res.Name + " at " + cols[i].Name
					}
					if len(res.Probs) != classes {
						errc <- "torn probs vector"
					}
					if idx := res.Type.Index(); idx < 0 || idx >= len(res.Probs) {
						errc <- "type outside class vocabulary: " + res.Type.String()
					} else if res.Confidence != res.Probs[idx] { //shvet:ignore float-eq confidence is copied, not computed: bit equality is the contract
						errc <- "confidence does not match predicted class probability"
					}
				}
			}
		}(g)
	}
	for i := 0; i < swaps; i++ {
		s.Reload(pipe, "")
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}

	// Quiesced: one batch to fill the final version's cache, then a full
	// repeat must hit — proving lookups and the serving model agree.
	req := testBatch(8)
	cols := make([]data.Column, len(req.Columns))
	for i, c := range req.Columns {
		cols[i] = data.Column{Name: c.Name, Values: c.Values}
	}
	if _, err := s.InferBatch(context.Background(), cols); err != nil {
		t.Fatalf("fill batch: %v", err)
	}
	results, err := s.InferBatch(context.Background(), cols)
	if err != nil {
		t.Fatalf("repeat batch: %v", err)
	}
	for _, res := range results {
		if !res.CacheHit {
			t.Errorf("column %s missed the cache after swaps quiesced", res.Name)
		}
	}
}

// TestReloadSamePipelineWhilePredicting reloads the serving pipeline onto
// itself while uncached predictions run. Every reload re-attaches the
// traversal-depth sink to the forest the workers are predicting with, so
// under -race it pins that attaching the sink is safe against concurrent
// predictions. The cache is off so every column predicts.
func TestReloadSamePipelineWhilePredicting(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	pipe := testModel(t)
	req := testBatch(8)
	cols := make([]data.Column, len(req.Columns))
	for i, c := range req.Columns {
		cols[i] = data.Column{Name: c.Name, Values: c.Values}
	}
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for i := 0; i < 20; i++ {
			if _, err := s.InferBatch(context.Background(), cols); err != nil {
				errc <- err
				return
			}
		}
	}()
	for {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("InferBatch during reloads: %v", err)
			}
			return
		default:
			s.Reload(pipe, "")
		}
	}
}
