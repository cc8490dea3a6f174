package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/data"
	"sortinghat/internal/serve"
	"sortinghat/internal/synth"
)

// Gateway endpoints the workloads post to.
const (
	pathJSON = "/v1/infer"
	pathCSV  = "/v1/infer/csv"
)

// table is one request body the client sends, with what the benchmark
// knows about each of its columns, in request order.
type table struct {
	path   string
	body   []byte
	names  []string
	labels []ftype.FeatureType // the generator's labels
	want   []ftype.FeatureType // in-process core.Pipeline.Predict answers, filled by computeOracle
}

// workload is the generated input of one run: the distinct request
// bodies and the order the client sends them in.
type workload struct {
	name   string
	tables []*table
	// order[k] is the table of the k-th request. A closed loop cycles
	// through it; an open loop sends it exactly once.
	order []int
	// due[k] is when the k-th request is due, from the window's start.
	// Nil for a closed loop.
	due []time.Duration
	// warmup lists tables replayed through the gateway once before timing.
	warmup []int
	// cacheHitMin and cacheHitMax bound serve.cache_hit_ratio: outside
	// them the workload's premise does not hold and the run is invalid.
	cacheHitMin, cacheHitMax float64
}

// sizes fixes how much work one run generates and measures. The
// benchmark runs defaultSizes; tests shrink it.
type sizes struct {
	trainColumns int // labeled synth columns the model is trained on
	trees, depth int // Random Forest shape
	setupReps    int // set-ups per untraced run; setup_s is their median

	tableColumns     int // columns per cold and warm request
	minRows, maxRows int // row range of cold and warm columns
	coldPool         int // distinct cold columns generated per run
	warmSet          int // warm working-set columns
	warmTables       int // distinct warm request bodies drawn from the set

	openRate float64 // tables-open arrivals per second
	rowScale int     // tables-open row multiplier over the suite's specs

	// maxRequests caps the requests of one timed window (0 = no cap), so
	// a smoke test ends after a fixed amount of work.
	maxRequests int
}

// defaultSizes is what the benchmark measures. The cold pool holds 192
// requests' worth of columns, which keeps the request bodies near 100 MB.
// A window that sends more reuses the pool from its start; each replica's
// share of it (about 5,400 and 6,900 columns at the fixed addresses) is
// larger than the default 4,096-column cache, so a column has been
// evicted by the time it comes round again, which the cold premise
// check confirms.
func defaultSizes() sizes {
	return sizes{
		trainColumns: 2000,
		trees:        100,
		depth:        25,
		setupReps:    3,
		tableColumns: 64,
		minRows:      40,
		maxRows:      1200,
		coldPool:     192 * 64,
		warmSet:      1024,
		warmTables:   128,
		openRate:     28,
		rowScale:     3,
	}
}

// trainSeed seeds the training corpus. It is fixed, so every run of
// every workload serves the same model; workload inputs come from the
// run's --seed through seedFor.
const trainSeed = 7

// seedFor derives an independent generator seed for one part of a
// workload from the run's seed.
func seedFor(seed int64, part string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, part, i)
	return int64(h.Sum64() >> 1)
}

// trainingCorpus is the labeled corpus the model is trained on.
func trainingCorpus(sz sizes) []data.LabeledColumn {
	cfg := synth.DefaultCorpusConfig()
	cfg.N = sz.trainColumns
	cfg.Seed = trainSeed
	return synth.GenerateCorpus(cfg)
}

// buildWorkload generates the named workload's inputs from seed.
// seconds is the timed window, which fixes the open loop's schedule.
func buildWorkload(name string, seed int64, sz sizes, seconds float64) (*workload, error) {
	switch name {
	case "cold":
		return buildCold(seed, sz)
	case "warm":
		return buildWarm(seed, sz)
	case "tables-open":
		return buildOpen(seed, sz, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want cold, warm or tables-open)", name)
	}
}

// distinctColumns generates labeled synth columns in chunks until it has
// handed emit n columns distinct by serve.ColumnHash, in generation
// order.
func distinctColumns(seed int64, part string, n int, sz sizes, emit func([]data.LabeledColumn) error) error {
	const chunk = 1024
	seen := map[[16]byte]bool{}
	var batch []data.LabeledColumn
	for i, got := 0, 0; got < n; i++ {
		if i > 64+n/chunk*2 {
			return fmt.Errorf("%s: could not generate %d distinct columns", part, n)
		}
		cfg := synth.DefaultCorpusConfig()
		cfg.N = chunk
		cfg.Seed = seedFor(seed, part, i)
		cfg.MinRows, cfg.MaxRows = sz.minRows, sz.maxRows
		// One column per synthetic file: a file's columns share a row
		// count, so grouping them would make a run's mean column length,
		// and every per-column cost with it, swing with the seed.
		cfg.ColsPerFileMin, cfg.ColsPerFileMax = 1, 1
		for _, c := range synth.GenerateCorpus(cfg) {
			h := serve.ColumnHash(&c.Column)
			if seen[h] || got == n {
				continue
			}
			seen[h] = true
			batch = append(batch, c)
			got++
		}
		if err := emit(batch); err != nil {
			return err
		}
		batch = batch[:0]
	}
	return nil
}

// jsonTable encodes cols as one POST /v1/infer body.
func jsonTable(cols []data.LabeledColumn) (*table, error) {
	req := serve.InferRequest{Columns: make([]serve.InferColumn, len(cols))}
	t := &table{path: pathJSON, names: make([]string, len(cols)), labels: make([]ftype.FeatureType, len(cols))}
	for i := range cols {
		req.Columns[i] = serve.InferColumn{Name: cols[i].Column.Name, Values: cols[i].Column.Values}
		t.names[i] = cols[i].Column.Name
		t.labels[i] = cols[i].Label
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	t.body = body
	return t, nil
}

// buildCold makes sz.coldPool never-seen columns, distinct by content
// hash, sent as consecutive tableColumns-column tables. Columns are
// encoded chunk by chunk so only the request bodies stay resident.
func buildCold(seed int64, sz sizes) (*workload, error) {
	wl := &workload{name: "cold", cacheHitMin: 0, cacheHitMax: 0.01}
	var pending []data.LabeledColumn
	err := distinctColumns(seed, "cold", sz.coldPool, sz, func(cols []data.LabeledColumn) error {
		pending = append(pending, cols...)
		for len(pending) >= sz.tableColumns {
			t, err := jsonTable(pending[:sz.tableColumns])
			if err != nil {
				return err
			}
			wl.tables = append(wl.tables, t)
			pending = append(pending[:0], pending[sz.tableColumns:]...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(pending) > 0 {
		t, err := jsonTable(pending)
		if err != nil {
			return nil, err
		}
		wl.tables = append(wl.tables, t)
	}
	for i := range wl.tables {
		wl.order = append(wl.order, i)
	}
	return wl, nil
}

// buildWarm makes a sz.warmSet-column working set and sz.warmTables
// tables drawn from it without replacement within a table. The working
// set itself, cut into tables, is the warm-up replayed before timing, so
// every timed column is already in its owner replica's cache.
func buildWarm(seed int64, sz sizes) (*workload, error) {
	wl := &workload{name: "warm", cacheHitMin: 0.99, cacheHitMax: 1}
	var set []data.LabeledColumn
	err := distinctColumns(seed, "warm", sz.warmSet, sz, func(cols []data.LabeledColumn) error {
		set = append(set, cols...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := sz.tableColumns
	if n > len(set) {
		n = len(set)
	}
	rng := rand.New(rand.NewSource(seedFor(seed, "warm-draw", 0)))
	pick := make([]data.LabeledColumn, n)
	for i := 0; i < sz.warmTables; i++ {
		for j, k := range rng.Perm(len(set))[:n] {
			pick[j] = set[k]
		}
		t, err := jsonTable(pick)
		if err != nil {
			return nil, err
		}
		wl.order = append(wl.order, len(wl.tables))
		wl.tables = append(wl.tables, t)
	}
	for lo := 0; lo < len(set); lo += n {
		hi := lo + n
		if hi > len(set) {
			hi = len(set)
		}
		t, err := jsonTable(set[lo:hi])
		if err != nil {
			return nil, err
		}
		wl.warmup = append(wl.warmup, len(wl.tables))
		wl.tables = append(wl.tables, t)
	}
	return wl, nil
}

// buildOpen makes the tables-open schedule: whole tables of the paper's
// 30-table downstream suite, rows scaled by sz.rowScale, sent as CSV at
// seeded Poisson arrivals. Each new table is a fresh generation of one
// suite spec; every block of 30 new tables covers each spec once, and
// each new table is sent exactly twice, the second time at a random
// later point. So half the requests repeat a table already sent, and the
// run's column total is fixed by the number of blocks, not the seed.
func buildOpen(seed int64, sz sizes, seconds float64) (*workload, error) {
	wl := &workload{name: "tables-open", cacheHitMin: 0, cacheHitMax: 1}
	specs := synth.SuiteSpecs(0)
	blocks := int(sz.openRate*seconds/float64(2*len(specs)) + 0.5)
	if blocks < 1 {
		blocks = 1
	}
	rng := rand.New(rand.NewSource(seedFor(seed, "open-schedule", 0)))
	var fresh []int // new tables in the order they are first sent
	for b := 0; b < blocks; b++ {
		specs := synth.SuiteSpecs(seedFor(seed, "open-suite", b))
		for _, s := range rng.Perm(len(specs)) {
			t, err := csvTable(specs[s], sz.rowScale)
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, len(wl.tables))
			wl.tables = append(wl.tables, t)
		}
	}
	var sent []int // sent once, not yet repeated
	for next := 0; next < len(fresh) || len(sent) > 0; {
		if next < len(fresh) && (len(sent) == 0 || rng.Intn(2) == 0) {
			wl.order = append(wl.order, fresh[next])
			sent = append(sent, fresh[next])
			next++
			continue
		}
		k := rng.Intn(len(sent))
		wl.order = append(wl.order, sent[k])
		sent[k] = sent[len(sent)-1]
		sent = sent[:len(sent)-1]
	}
	wl.due = poissonDue(rng, len(wl.order), time.Duration(seconds*float64(time.Second)))
	return wl, nil
}

// csvTable generates one suite table (feature columns only, without the
// prediction target) as a POST /v1/infer/csv body.
func csvTable(spec synth.DatasetSpec, rowScale int) (*table, error) {
	spec.Rows *= rowScale
	d := synth.Generate(spec)
	cols := d.Data.Columns[:len(d.Data.Columns)-1]
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, &data.Dataset{Name: spec.Name, Columns: cols}); err != nil {
		return nil, err
	}
	t := &table{path: pathCSV, body: buf.Bytes(), labels: d.TrueTypes}
	for _, c := range cols {
		t.names = append(t.names, c.Name)
	}
	return t, nil
}

// poissonDue spreads n arrivals over [0, window) as a Poisson process
// conditioned on n arrivals: exponential gaps, rescaled so the n+1-th
// arrival would land exactly at the window's end. Conditioning keeps the
// request count, and so the offered work, the same for every seed.
func poissonDue(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	due := make([]time.Duration, n)
	at := 0.0
	for i := 0; i < n; i++ {
		at += gaps[i]
		due[i] = time.Duration(at / total * float64(window))
	}
	return due
}

// columns decodes a table's body the way the fleet does: JSON into
// serve.InferRequest, CSV through data.ReadCSVLimited with the daemon's
// default limits.
func (t *table) columns() ([]data.Column, error) {
	if t.path == pathCSV {
		ds, err := data.ReadCSVLimited("request", bytes.NewReader(t.body), data.Limits{
			MaxColumns:   serve.DefaultMaxBatch,
			MaxCellBytes: serve.DefaultMaxCellBytes,
		})
		if err != nil {
			return nil, err
		}
		return ds.Columns, nil
	}
	var req serve.InferRequest
	if err := json.Unmarshal(t.body, &req); err != nil {
		return nil, err
	}
	cols := make([]data.Column, len(req.Columns))
	for i, c := range req.Columns {
		cols[i] = data.Column{Name: c.Name, Values: c.Values}
	}
	return cols, nil
}
