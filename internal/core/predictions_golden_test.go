package core_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/gateway"
	"sortinghat/internal/serve"
	"sortinghat/internal/synth"
)

// goldenPath pins the exact predictions of a small fixed-seed Random
// Forest on a fixed-seed synth corpus. Training runs base featurization
// too, so the golden pins both the fitted model and the serve-time
// featurization: a change to stats, featurize or the forest that moves
// any probability by one ulp shows up here. Regenerate (only for a
// deliberate, documented prediction change) with
// UPDATE_GOLDEN=1 go test ./internal/core -run PredictionsGolden.
var goldenPath = filepath.Join("testdata", "predictions.golden")

// goldenFixture trains the pinned model and generates the pinned columns.
func goldenFixture(t *testing.T) (*core.Pipeline, []data.Column) {
	t.Helper()
	train := synth.DefaultCorpusConfig()
	train.N = 300
	opts := core.DefaultOptions()
	opts.RFTrees, opts.RFDepth = 12, 14
	pipe, err := core.Train(synth.GenerateCorpus(train), opts)
	if err != nil {
		t.Fatal(err)
	}
	probe := synth.DefaultCorpusConfig()
	probe.N, probe.Seed = 160, 20211
	labeled := synth.GenerateCorpus(probe)
	cols := make([]data.Column, len(labeled))
	for i := range labeled {
		cols[i] = labeled[i].Column
	}
	return pipe, cols
}

// goldenLine renders one prediction as "name<TAB>class<TAB>p0 p1 ...",
// probabilities in class-index order with shortest exact formatting.
func goldenLine(b *bytes.Buffer, name, class string, probs []float64) {
	b.WriteString(name)
	b.WriteByte('\t')
	b.WriteString(class)
	b.WriteByte('\t')
	for i, p := range probs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
	}
	b.WriteByte('\n')
}

// renderWire renders HTTP answers, mapping each class-keyed probability
// map back to class-index order.
func renderWire(t *testing.T, preds []serve.InferPrediction) []byte {
	t.Helper()
	var b bytes.Buffer
	classes := ftype.BaseClasses()
	for _, p := range preds {
		if p.Degraded || p.Error != "" {
			t.Fatalf("column %q answered degraded (%s)", p.Name, p.Error)
		}
		probs := make([]float64, len(classes))
		for i, c := range classes {
			v, ok := p.Probs[c.String()]
			if !ok {
				t.Fatalf("column %q: no probability for class %s", p.Name, c)
			}
			probs[i] = v
		}
		goldenLine(&b, p.Name, p.Type, probs)
	}
	return b.Bytes()
}

// postInfer sends cols in 64-column JSON batches to url+"/v1/infer" and
// returns the concatenated predictions. decode unpacks one answer body.
func postInfer(t *testing.T, url string, cols []data.Column, decode func([]byte) []serve.InferPrediction) []serve.InferPrediction {
	t.Helper()
	var out []serve.InferPrediction
	for lo := 0; lo < len(cols); lo += 64 {
		hi := min(lo+64, len(cols))
		req := serve.InferRequest{}
		for _, c := range cols[lo:hi] {
			req.Columns = append(req.Columns, serve.InferColumn{Name: c.Name, Values: c.Values})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		_, err = raw.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/v1/infer: status %d, err %v: %s", url, resp.StatusCode, err, raw.Bytes())
		}
		preds := decode(raw.Bytes())
		if len(preds) != hi-lo {
			t.Fatalf("%d predictions for %d columns", len(preds), hi-lo)
		}
		out = append(out, preds...)
	}
	return out
}

// TestPredictionsGolden checks the pinned predictions byte for byte three
// ways: in process through Pipeline.Predict, over HTTP through one
// serve.Server, and through a gateway sharding across two replicas.
func TestPredictionsGolden(t *testing.T) {
	pipe, cols := goldenFixture(t)

	var direct bytes.Buffer
	for i := range cols {
		typ, probs := pipe.Predict(&cols[i])
		goldenLine(&direct, cols[i].Name, typ.String(), probs)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, direct.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	check := func(path string, got []byte) {
		t.Helper()
		if bytes.Equal(got, want) {
			return
		}
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s: line %d differs from %s\ngot:  %s\nwant: %s", path, i+1, goldenPath, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(g), len(w))
	}
	check("Pipeline.Predict", direct.Bytes())

	decodeServe := func(b []byte) []serve.InferPrediction {
		var r serve.InferResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return r.Predictions
	}
	single := serve.New(pipe, serve.Config{Workers: 2, CacheSize: -1})
	defer single.Close()
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	check("serve HTTP", renderWire(t, postInfer(t, ts.URL, cols, decodeServe)))

	var addrs []string
	for i := 0; i < 2; i++ {
		s := serve.New(pipe, serve.Config{Workers: 2, CacheSize: 1024})
		defer s.Close()
		rs := httptest.NewServer(s.Handler())
		defer rs.Close()
		addrs = append(addrs, rs.URL)
	}
	g, err := gateway.New(gateway.Config{Replicas: addrs, ProbeInterval: time.Hour, Hedge: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()
	decodeGateway := func(b []byte) []serve.InferPrediction {
		var r gateway.BatchResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		if r.DegradedColumns != 0 {
			t.Fatalf("gateway answered %d columns degraded", r.DegradedColumns)
		}
		return r.Predictions
	}
	check("gateway over 2 replicas", renderWire(t, postInfer(t, gs.URL, cols, decodeGateway)))
}
