package sortinghat

// Benchmarks that regenerate every table and figure of the paper's
// evaluation at a reduced, benchmark-friendly scale, plus ablation benches
// for the design choices called out in DESIGN.md §5. Run the cmd/benchmark
// binary for full-size, human-readable experiment output:
//
//	go run ./cmd/benchmark -run all        # small-machine sizing
//	go run ./cmd/benchmark -run all -full  # paper-scale corpus
//
// Each BenchmarkTableN/BenchmarkFigureN iteration executes the complete
// experiment pipeline behind that artifact.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/downstream"
	"sortinghat/internal/experiments"
	"sortinghat/internal/featurize"
	"sortinghat/internal/ml/svm"
	"sortinghat/internal/ml/tree"
	"sortinghat/internal/serve"
	"sortinghat/internal/synth"
)

// benchEnv is the shared, lazily built experiment environment. Benchmarks
// use a small corpus so the whole suite completes on a laptop-class
// machine; cmd/benchmark regenerates the full-size tables.
var (
	benchOnce sync.Once
	benchE    *experiments.Env
)

func benchEnvironment() *experiments.Env {
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.CorpusN = 1500
		cfg.RFTrees = 25
		cfg.CNNEpochs = 2
		cfg.Quick = true
		benchE = experiments.NewEnv(cfg)
	})
	return benchE
}

func BenchmarkTable1(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable11(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table11(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable12(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table12(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable18(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table18(env)
	}
}

func BenchmarkFigure7(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	env := benchEnvironment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(env, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSuite is a reduced downstream slice (6 of the 30 datasets spanning
// every routing path) used by the downstream benchmarks; the full Tables
// 4/5/15 come from cmd/benchmark -run downstream.
func benchSuite() []*synth.Downstream {
	keep := map[string]bool{"Hayes": true, "Boxing": true, "IOT": true,
		"Zoo": true, "MBA": true, "Accident": true}
	var out []*synth.Downstream
	for _, sp := range synth.SuiteSpecs(1234) {
		if keep[sp.Name] {
			sp.Rows /= 2
			out = append(out, synth.Generate(sp))
		}
	}
	return out
}

// BenchmarkTables4And5 exercises the downstream pipeline behind Tables 4
// and 5 and Figure 8: infer types with every tool, featurize per routing,
// train both downstream models, and score against truth.
func BenchmarkTables4And5(b *testing.B) {
	env := benchEnvironment()
	rf, err := experiments.TrainOurRF(env)
	if err != nil {
		b.Fatal(err)
	}
	suite := benchSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range suite {
			for _, types := range [][]ftype.FeatureType{d.TrueTypes, downstream.InferTypes(d, rf)} {
				for _, m := range []downstream.Model{downstream.LinearModel, downstream.ForestModel} {
					if _, err := downstream.Evaluate(d, types, m, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkTable15 exercises the double-representation variant.
func BenchmarkTable15(b *testing.B) {
	env := benchEnvironment()
	rf, err := experiments.TrainOurRF(env)
	if err != nil {
		b.Fatal(err)
	}
	suite := benchSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range suite {
			if d.IsRegression() {
				continue
			}
			types := downstream.InferTypes(d, rf)
			double := make([]bool, len(types))
			for c := range double {
				double[c] = downstream.IsIntegerColumn(&d.Data.Columns[c])
			}
			if _, err := downstream.EvaluateDouble(d, types, double, downstream.ForestModel, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkHashingDims ablates the hashed-bigram dimensionality of the
// attribute-name features: accuracy/speed tradeoff of the paper's
// "bigrams on the attribute name" featurization.
func BenchmarkHashingDims(b *testing.B) {
	env := benchEnvironment()
	trainBases, trainLabels := env.TrainBases()
	for _, dim := range []int{64, 256, 1024} {
		b.Run(sizeName("nameDim", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs := featurize.FeatureSet{UseStats: true, UseName: true, NameDim: dim}
				_, err := core.TrainOnBases(trainBases, trainLabels, core.Options{
					Model: core.RandomForest, FeatureSet: fs, Seed: 1, RFTrees: 15, RFDepth: 20})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRFFDim ablates the random-Fourier-feature count approximating
// the RBF kernel.
func BenchmarkRFFDim(b *testing.B) {
	env := benchEnvironment()
	trainBases, trainLabels := env.TrainBases()
	fs := featurize.DefaultFeatureSet()
	X := fs.Matrix(trainBases)
	for _, d := range []int{128, 512, 1024} {
		b.Run(sizeName("rff", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := svm.NewRBFSVM()
				m.D = d
				m.Epochs = 5
				if err := m.Fit(X, trainLabels, ftype.NumBaseClasses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRFGrid sweeps the paper's Random Forest grid corners
// (NumEstimator × MaxDepth, Appendix B).
func BenchmarkRFGrid(b *testing.B) {
	env := benchEnvironment()
	trainBases, trainLabels := env.TrainBases()
	fs := featurize.DefaultFeatureSet()
	X := fs.Matrix(trainBases)
	for _, p := range []struct{ trees, depth int }{{5, 5}, {25, 25}, {50, 10}} {
		b.Run(sizeName("trees", p.trees)+"_"+sizeName("depth", p.depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := tree.NewClassifier(p.trees, p.depth)
				if err := m.Fit(X, trainLabels, ftype.NumBaseClasses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaseFeaturization measures the shared featurization cost per
// column (the dominant online-phase cost in Figure 7).
func BenchmarkBaseFeaturization(b *testing.B) {
	env := benchEnvironment()
	cols := env.Corpus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := &cols[i%len(cols)].Column
		featurize.ExtractFirstN(col, featurize.SampleCount)
	}
}

// BenchmarkFeaturizeColumn measures deterministic base featurization of a
// single column with allocation accounting: the serve hot path pays this
// once per cache miss, so its allocs/op is the number the benchdiff gate
// watches most closely.
func BenchmarkFeaturizeColumn(b *testing.B) {
	env := benchEnvironment()
	cols := env.Corpus
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := &cols[i%len(cols)].Column
		featurize.ExtractFirstN(col, featurize.SampleCount)
	}
}

// BenchmarkTreePredict measures one Random Forest probability prediction
// over pre-built feature vectors, isolating tree traversal (plus the
// per-call probability buffer) from featurization.
func BenchmarkTreePredict(b *testing.B) {
	env := benchEnvironment()
	rf, err := experiments.TrainOurRF(env)
	if err != nil {
		b.Fatal(err)
	}
	fs := rf.Opts.FeatureSet
	vecs := make([][]float64, 256)
	for i := range vecs {
		base := featurize.ExtractFirstN(&env.Corpus[i%len(env.Corpus)].Column, featurize.SampleCount)
		vecs[i] = fs.Vector(&base)
	}
	probs := make([]float64, rf.Forest.Classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf.Forest.PredictProbaInto(probs, vecs[i%len(vecs)])
	}
}

// BenchmarkPredictColumn measures end-to-end single-column inference with
// the trained Random Forest (the paper's "under 0.2s per column" claim).
func BenchmarkPredictColumn(b *testing.B) {
	env := benchEnvironment()
	rf, err := experiments.TrainOurRF(env)
	if err != nil {
		b.Fatal(err)
	}
	cols := env.Corpus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf.Infer(&cols[i%len(cols)].Column)
	}
}

// BenchmarkServeInfer measures the serving hot path of internal/serve: a
// 64-column batch through the worker pool, featurization included. The
// workersN sub-benchmarks demonstrate worker-pool parallelism (featurize
// latency should drop as workers grow on a multi-core machine); the
// cached sub-benchmark shows the content-hash LRU skipping featurization
// entirely; the http sub-benchmark adds JSON decode/encode on top.
func BenchmarkServeInfer(b *testing.B) {
	env := benchEnvironment()
	rf, err := experiments.TrainOurRF(env)
	if err != nil {
		b.Fatal(err)
	}
	cols := benchBatch(env)

	for _, workers := range []int{1, 2, 4} {
		b.Run(sizeName("workers", workers), func(b *testing.B) {
			s := serve.New(rf, serve.Config{Workers: workers, CacheSize: -1})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.InferBatch(context.Background(), cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("cached", func(b *testing.B) {
		s := serve.New(rf, serve.Config{Workers: 2, CacheSize: 128})
		defer s.Close()
		if _, err := s.InferBatch(context.Background(), cols); err != nil {
			b.Fatal(err) // warm the cache; every timed batch hits it
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.InferBatch(context.Background(), cols); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("http", func(b *testing.B) {
		s := serve.New(rf, serve.Config{Workers: 4, CacheSize: -1})
		defer s.Close()
		h := s.Handler()
		body := inferBody(b, cols)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
	})
}

// benchBatch is the serve benchmarks' 64-column batch.
func benchBatch(env *experiments.Env) []data.Column {
	cols := make([]data.Column, 64)
	for i := range cols {
		cols[i] = env.Corpus[i%len(env.Corpus)].Column
	}
	return cols
}

// inferBody is the /v1/infer JSON body of cols, as a client's
// encoding/json writes it.
func inferBody(b *testing.B, cols []data.Column) []byte {
	req := serve.InferRequest{Columns: make([]serve.InferColumn, len(cols))}
	for i, c := range cols {
		req.Columns[i] = serve.InferColumn{Name: c.Name, Values: c.Values}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecodeInferRequest decodes BenchmarkServeInfer's 64-column
// batch as a /v1/infer body with the wire codec both tiers run on every
// JSON request; ns/col is the per-column cost.
func BenchmarkDecodeInferRequest(b *testing.B) {
	cols := benchBatch(benchEnvironment())
	body := inferBody(b, cols)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.DecodeInferRequest(body, len(cols)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cols)), "ns/col")
}

// BenchmarkColumnHash hashes BenchmarkServeInfer's 64-column batch with
// serve.ColumnHash, the content hash the gateway routes on and each
// replica keys its prediction cache on; ns/col is the per-column cost.
func BenchmarkColumnHash(b *testing.B) {
	cols := benchBatch(benchEnvironment())
	var bytes int64
	for i := range cols {
		bytes += int64(len(cols[i].Name))
		for _, v := range cols[i].Values {
			bytes += int64(len(v))
		}
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cols {
			hashSink = serve.ColumnHash(&cols[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cols)), "ns/col")
}

// hashSink keeps BenchmarkColumnHash's result live.
var hashSink [16]byte

func sizeName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + string(buf[i:])
}
