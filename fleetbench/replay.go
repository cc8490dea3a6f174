package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/featurize"
	"sortinghat/internal/gateway"
	"sortinghat/internal/serve"
	"sortinghat/internal/stats"
)

// replayColumns bounds how many of the workload's columns the replay
// decodes and times; enough for stable per-column figures in well under
// a second per layer.
const replayColumns = 1024

// Each layer's replay repeats for at least replayMinTime and minPasses
// passes; the figure reported is the median pass.
const (
	replayMinTime = 200 * time.Millisecond
	minPasses     = 3
)

// replay calls each layer's public function single-threaded on the
// workload's own inputs, with the fleet stopped, and returns the
// per-column figures by metric name.
func replay(ctx context.Context, pipe *core.Pipeline, wl *workload, addrs []string) (map[string]float64, error) {
	var tabs []*table
	var cols []data.Column
	seen := map[int]bool{}
	for _, ti := range wl.order {
		if len(cols) >= replayColumns {
			break
		}
		if seen[ti] {
			continue
		}
		seen[ti] = true
		t := wl.tables[ti]
		c, err := t.columns()
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, t)
		cols = append(cols, c...)
	}
	n := float64(len(cols))
	out := map[string]float64{}

	// The gateway tier: route each column by the first 8 bytes of its
	// content hash, as the gateway does, and encode one InferRequest per
	// owner.
	ring, err := gateway.NewRing(addrs, 0)
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, len(cols))
	ownerOf := make([]int, len(cols))
	owners := make([][]serve.InferColumn, len(addrs))
	for i := range cols {
		sum := serve.ColumnHash(&cols[i])
		keys[i] = binary.BigEndian.Uint64(sum[:8])
		ownerOf[i] = ring.Owner(keys[i])
		owners[ownerOf[i]] = append(owners[ownerOf[i]], serve.InferColumn{Name: cols[i].Name, Values: cols[i].Values})
	}
	var shardBodies [][]byte
	out["gateway.encode_us_per_column"] = perColumn(n, func() {
		shardBodies = shardBodies[:0]
		for _, oc := range owners {
			b, err := json.Marshal(serve.InferRequest{Columns: oc})
			if err != nil {
				panic(err) // marshalling strings and slices cannot fail
			}
			shardBodies = append(shardBodies, b)
		}
	})
	decode := func() {
		for _, b := range shardBodies {
			var req serve.InferRequest
			if err := json.Unmarshal(b, &req); err != nil {
				panic(err) // the bodies were just marshalled
			}
		}
	}
	out["serve.decode_us_per_column"] = perColumn(n, decode)
	out["serve.decode_allocs_per_column"] = allocsPerColumn(n, decode)
	out["gateway.route_us_per_column"] = perColumn(n, func() {
		for _, k := range keys {
			ring.Owner(k)
		}
	})
	out["serve.hash_us_per_column"] = perColumn(n, func() {
		for i := range cols {
			serve.ColumnHash(&cols[i])
		}
	})

	// CSV ingest: the workload's CSV bodies, or, for JSON workloads, the
	// same tables rendered as CSV with short columns padded by empty cells.
	var csvBodies [][]byte
	for _, t := range tabs {
		if t.path == pathCSV {
			csvBodies = append(csvBodies, t.body)
			continue
		}
		c, err := t.columns()
		if err != nil {
			return nil, err
		}
		b, err := paddedCSV(c)
		if err != nil {
			return nil, err
		}
		csvBodies = append(csvBodies, b)
	}
	lim := data.Limits{MaxColumns: serve.DefaultMaxBatch, MaxCellBytes: serve.DefaultMaxCellBytes}
	out["data.read_csv_us_per_column"] = perColumn(n, func() {
		for _, b := range csvBodies {
			if _, err := data.ReadCSVLimited("replay", bytes.NewReader(b), lim); err != nil {
				panic(err) // the bodies parsed once already
			}
		}
	})

	// The replica's featurize and predict layers.
	samples := make([][]string, len(cols))
	out["data.distinct_us_per_column"] = perColumn(n, func() {
		for i := range cols {
			samples[i] = cols[i].FirstNDistinct(featurize.SampleCount)
		}
	})
	computeStats := func() {
		for i := range cols {
			stats.Compute(&cols[i], samples[i])
		}
	}
	out["stats.compute_us_per_column"] = perColumn(n, computeStats)
	out["stats.compute_allocs_per_column"] = allocsPerColumn(n, computeStats)
	bases := make([]featurize.Base, len(cols))
	out["featurize.extract_us_per_column"] = perColumn(n, func() {
		for i := range cols {
			bases[i] = featurize.ExtractFirstN(&cols[i], featurize.SampleCount)
		}
	})
	answers := make([]serve.InferResponse, len(owners))
	for i := range answers {
		answers[i] = serve.InferResponse{Model: pipe.Name(), ModelVersion: "v1"}
	}
	for i := range bases {
		typ, probs := pipe.PredictBase(&bases[i])
		a := &answers[ownerOf[i]]
		a.Predictions = append(a.Predictions, prediction(cols[i].Name, typ, probs))
	}
	out["core.predict_us_per_column"] = perColumn(n, func() {
		for i := range bases {
			pipe.PredictBase(&bases[i])
		}
	})
	vecs := make([][]float64, len(bases))
	for i := range bases {
		vecs[i] = pipe.Opts.FeatureSet.Vector(&bases[i])
	}
	probs := make([]float64, pipe.Forest.Classes)
	out["tree.predict_us_per_column"] = perColumn(n, func() {
		for _, v := range vecs {
			pipe.Forest.PredictProbaInto(probs, v)
		}
	})

	// The replicas' answers, one per shard.
	out["serve.encode_us_per_column"] = perColumn(n, func() {
		for i := range answers {
			if _, err := json.Marshal(&answers[i]); err != nil {
				panic(err) // marshalling plain values cannot fail
			}
		}
	})

	// One 64-column table through the in-process worker pool, cache off:
	// the gap to latency_p50_ms is what HTTP and JSON add.
	batch := cols
	if len(batch) > 64 {
		batch = batch[:64]
	}
	s := serve.New(pipe, serve.Config{CacheSize: -1})
	defer s.Close()
	var reps []float64
	for start := time.Now(); len(reps) < minPasses || time.Since(start) < replayMinTime; {
		t0 := time.Now()
		if _, err := s.InferBatch(ctx, batch); err != nil {
			return nil, fmt.Errorf("in-process InferBatch: %w", err)
		}
		reps = append(reps, ms(time.Since(t0)))
	}
	out["serve.infer_batch_ms"] = median(reps)
	return out, nil
}

// prediction renders one answer the way a replica does.
func prediction(name string, typ ftype.FeatureType, probs []float64) serve.InferPrediction {
	byClass := make(map[string]float64, len(probs))
	for i, p := range probs {
		byClass[ftype.FeatureType(i).String()] = p
	}
	conf := 0.0
	if i := typ.Index(); i >= 0 && i < len(probs) {
		conf = probs[i]
	}
	return serve.InferPrediction{Name: name, Type: typ.String(), Confidence: conf, Probs: byClass}
}

// paddedCSV renders columns of unequal length as one rectangular CSV,
// padding short columns with empty cells.
func paddedCSV(cols []data.Column) ([]byte, error) {
	rows := 0
	for _, c := range cols {
		if len(c.Values) > rows {
			rows = len(c.Values)
		}
	}
	padded := make([]data.Column, len(cols))
	for i, c := range cols {
		v := make([]string, rows)
		copy(v, c.Values)
		padded[i] = data.Column{Name: c.Name, Values: v}
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, &data.Dataset{Columns: padded}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// perColumn times passes of fn until replayMinTime has passed and at
// least minPasses passes ran, and returns the median pass in µs per column.
func perColumn(columns float64, fn func()) float64 {
	fn() // first pass warms caches and pools
	var passes []float64
	for start := time.Now(); len(passes) < minPasses || time.Since(start) < replayMinTime; {
		t0 := time.Now()
		fn()
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/1e3/columns)
	}
	return median(passes)
}

// allocsPerColumn counts heap allocations of one pass of fn per column.
// It runs with the fleet stopped and GOMAXPROCS 1, so no other goroutine
// allocates in between, and with the collector off, so no sync.Pool is
// emptied mid-pass: the count repeats exactly for the same input.
func allocsPerColumn(columns float64, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / columns
}
