// Command fleetbench is the repository's end-to-end benchmark. It trains
// the default Random Forest on a seeded synth corpus, boots two
// sortinghatd replicas and a gateway in-process on loopback listeners,
// drives the gateway from one client, checks every answer against the
// in-process pipeline, and prints every metric by name with its unit.
//
//	go build -o fleetbench . && ./fleetbench --workload cold --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	cold         64 never-seen columns per JSON request, closed loop:
//	             featurize and predict dominate.
//	warm         64 columns per JSON request drawn from a 1,024-column
//	             working set replayed before timing: every column is a
//	             cache hit, so decode and hashing dominate.
//	tables-open  whole tables of the 30-table downstream suite as CSV,
//	             Poisson arrivals at a fixed rate, half of them repeats:
//	             CSV ingest, long columns, mixed widths, queueing.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer ones. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The full run record, with run facts and every
// ratio's base, goes to --out, and with --trace 1 so do the spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"sortinghat/internal/core"
)

// openLateBoundMS bounds loadgen.late_p95_ms on tables-open: a schedule
// the senders could not keep did not offer the load it claims to, so
// the run is invalid.
const openLateBoundMS = 100

func main() {
	os.Exit(run(context.Background(), os.Args[1:], defaultSizes(), os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sizes    sizes
}

// run parses the flags, performs one run at the given sizes and prints
// its result. It returns the process exit code.
func run(ctx context.Context, args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold, warm or tables-open")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of each timed window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for run records and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: fleetbench --workload cold|warm|tables-open --seed N --seconds S --trace 0|1 [--out DIR]")
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: *out, sizes: sz}
	res, err := measure(ctx, opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	if err := res.write(opts, stdout); err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	return 0
}

// metric is one reported figure. base says what it was computed from.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base"`
}

// windowFacts records one timed window's counts.
type windowFacts struct {
	Name            string  `json:"name"`
	Attempted       int     `json:"requests_attempted"`
	Answered        int     `json:"requests_answered"`
	Failed          int     `json:"requests_failed"`
	Transport       int     `json:"failed_transport"`
	Status          int     `json:"failed_status"`
	Defects         int     `json:"failed_defects"`
	FirstFailure    string  `json:"first_failure,omitempty"`
	ColumnsSent     int     `json:"columns_attempted"`
	ColumnsAnswered int     `json:"columns_answered"`
	WallSeconds     float64 `json:"wall_seconds"`
	CPUSeconds      float64 `json:"cpu_seconds"`
}

// sliceFacts records one slice of the untraced window.
type sliceFacts struct {
	Seconds    float64 `json:"seconds"`
	Columns    int     `json:"columns_answered"`
	Requests   int     `json:"requests"`
	CPUSeconds float64 `json:"cpu_seconds"`
	LatencyP50 float64 `json:"latency_p50_ms,omitempty"`
}

// result is everything one run records: the facts it ran under, the
// metrics it reports, and whether its answers and premises held.
type result struct {
	Workload     string        `json:"workload"`
	Seed         int64         `json:"seed"`
	Seconds      float64       `json:"seconds"`
	Trace        bool          `json:"trace"`
	NumCPU       int           `json:"num_cpu"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	GoVersion    string        `json:"go_version"`
	Commit       string        `json:"commit"`
	Model        string        `json:"model"`
	SetupSeconds []float64     `json:"setup_seconds"`
	Windows      []windowFacts `json:"windows"`
	Slices       []sliceFacts  `json:"slices,omitempty"`
	Replicas     []string      `json:"replicas"`
	Invalid      []string      `json:"invalid,omitempty"`
	SpansFile    string        `json:"spans_file,omitempty"`
	Metrics      []metric      `json:"metrics"`
}

func (r *result) add(name string, value float64, unit, base string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Base: base})
}

// correct reports whether every answer matched the in-process reference
// and every workload premise held.
func (r *result) correct() bool {
	for _, w := range r.Windows {
		if w.Defects > 0 {
			return false
		}
	}
	return len(r.Invalid) == 0
}

// commit names the source revision the binary was built from, when the
// build recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveHeap returns the bytes of live heap. The second collection empties
// the sync.Pools the first one only moved to their victim caches, so the
// figure does not depend on which scratch buffers happened to be pooled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measure performs one run.
func measure(ctx context.Context, opts options, log io.Writer) (*result, error) {
	sz := opts.sizes
	res := &result{
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(),
	}
	modelOpts := core.DefaultOptions()
	modelOpts.RFTrees, modelOpts.RFDepth = sz.trees, sz.depth
	res.Model = fmt.Sprintf("%s trees=%d depth=%d features=%s train_columns=%d train_seed=%d",
		modelOpts.Model, modelOpts.RFTrees, modelOpts.RFDepth, modelOpts.FeatureSet.Label(), sz.trainColumns, trainSeed)

	train := trainingCorpus(sz)
	wl, err := buildWorkload(opts.workload, opts.seed, sz, opts.seconds)
	if err != nil {
		return nil, err
	}
	heapBefore := liveHeap()

	reps := sz.setupReps
	if opts.trace {
		reps = 1 // setup_s is an end-to-end metric; the traced run sets up once
	}
	var f *fleet
	var pipe *core.Pipeline
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		var took time.Duration
		f, pipe, took, err = setUp(ctx, train, modelOpts, nil)
		if err != nil {
			return nil, err
		}
		res.SetupSeconds = append(res.SetupSeconds, took.Seconds())
	}
	res.Replicas = f.addrs
	fmt.Fprintf(log, "fleetbench: %s seed %d: set up in %v s, computing reference answers\n", opts.workload, opts.seed, res.SetupSeconds)
	if err := computeOracle(pipe, wl.tables); err != nil {
		f.close()
		return nil, err
	}

	client := newClient()
	defer client.CloseIdleConnections()
	untraced, t, err := timedWindow(ctx, f, client, wl, opts, "w0", nil)
	if err != nil {
		f.close()
		return nil, err
	}
	res.record("untraced", untraced, t, wl)
	if !opts.trace {
		heapAfter := liveHeap()
		f.close()
		runtime.KeepAlive(train)
		runtime.KeepAlive(wl)
		if err := res.endToEnd(untraced, t, heapBefore, heapAfter); err != nil {
			return nil, err
		}
		return res, nil
	}
	f.close()

	rec := newRecorder()
	f, err = bootFleet(pipe, rec)
	if err != nil {
		return nil, err
	}
	if err := f.waitHealthy(ctx); err != nil {
		f.close()
		return nil, err
	}
	traced, tt, err := timedWindow(ctx, f, client, wl, opts, "w1", rec)
	addrs := f.addrs
	f.close()
	if err != nil {
		return nil, err
	}
	res.record("traced", traced, tt, wl)
	client.CloseIdleConnections()
	layers, err := replay(ctx, pipe, wl, addrs)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	spans := link(rec.window("w1"))
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	res.SpansFile = filepath.Join(opts.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opts.workload, opts.seed))
	if err := writeSpans(res.SpansFile, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if err := res.perLayer(untraced, t, traced, tt, spans, layers); err != nil {
		return nil, err
	}
	return res, nil
}

// timedWindow replays the workload's warm-up, runs one timed window and
// checks its answers.
func timedWindow(ctx context.Context, f *fleet, client *http.Client, wl *workload, opts options, tag string, rec *recorder) (window, tally, error) {
	if err := replayTables(ctx, client, f.url, wl, wl.warmup, tag+"-warmup"); err != nil {
		return window{}, tally{}, err
	}
	l := &load{client: client, url: f.url, wl: wl, seconds: opts.seconds, maxRequests: opts.sizes.maxRequests, tag: tag, rec: rec}
	win := l.run(ctx)
	return win, count(wl, win.outcomes), nil
}

// record adds a window's counts to the run's facts and notes a broken
// premise.
func (r *result) record(name string, w window, t tally, wl *workload) {
	r.Windows = append(r.Windows, windowFacts{
		Name: name, Attempted: t.attempted, Answered: t.answered, Failed: t.failed,
		Transport: t.transport, Status: t.status, Defects: t.defects, FirstFailure: t.firstFailure,
		ColumnsSent: t.columnsSent, ColumnsAnswered: t.columnsAnswered,
		WallSeconds: w.wall.Seconds(), CPUSeconds: w.total().cpu.Seconds(),
	})
	if why := premise(wl, t); why != "" {
		r.Invalid = append(r.Invalid, name+" window: "+why)
	}
	if wl.due != nil {
		if late, err := percentile(t.late, 95); err == nil && late > openLateBoundMS {
			r.Invalid = append(r.Invalid, fmt.Sprintf("%s window: loadgen.late_p95_ms %.1f over its %d ms bound", name, late, openLateBoundMS))
		}
	}
}

// endToEnd adds the end-to-end metrics of an untraced window. Rates,
// per-column costs and the median latency are medians over the window's
// slices. The tail latency pools the requests of the slices with the
// lowest median latency until the pool holds half the window's requests
// and enough of them for a p95, and takes the pool's p95: a tail over
// every request would report the host's slow episodes, not the program.
func (r *result) endToEnd(w window, t tally, heapBefore, heapAfter uint64) error {
	if t.columnsAnswered == 0 {
		return fmt.Errorf("no request was answered correctly; first failure: %s", t.firstFailure)
	}
	sl := slices(w, t)
	var rates, cpu, alloc []float64
	type ranked struct {
		p50 float64
		lat []float64
	}
	var byP50 []ranked
	for _, s := range sl {
		f := sliceFacts{Seconds: s.dur.Seconds(), Columns: s.columns, Requests: len(s.latencies), CPUSeconds: s.counters.cpu.Seconds()}
		f.LatencyP50, _ = percentile(s.latencies, 50)
		r.Slices = append(r.Slices, f)
		rates = append(rates, float64(s.columns)/s.dur.Seconds())
		if s.columns > 0 {
			cpu = append(cpu, ms(s.counters.cpu)/float64(s.columns))
			alloc = append(alloc, float64(s.counters.allocs)/1024/float64(s.columns))
		}
		if p, err := percentile(s.latencies, 50); err == nil {
			byP50 = append(byP50, ranked{p, s.latencies})
		}
	}
	if len(byP50) == 0 {
		return fmt.Errorf("latency_p50_ms: no slice of %v holds %d requests", sliceLength, 2*minBeyond+1)
	}
	sort.Slice(byP50, func(i, j int) bool { return byP50[i].p50 < byP50[j].p50 })
	var p50s, pool []float64
	used := 0
	for _, s := range byP50 {
		p50s = append(p50s, s.p50)
		if len(pool) < len(t.requests)/2 || len(pool) < poolMin {
			pool = append(pool, s.lat...)
			used++
		}
	}
	p95, err := percentile(pool, 95)
	if err != nil {
		return fmt.Errorf("latency_p95_ms: %w", err)
	}
	if math.IsInf(p95, 1) {
		return fmt.Errorf("more than 5%% of the pooled requests failed; first failure: %s", t.firstFailure)
	}
	cols := float64(t.columnsAnswered)
	n := len(sl)
	r.add("setup_s", median(r.SetupSeconds), "s", fmt.Sprintf("median of %d set-ups %v", len(r.SetupSeconds), r.SetupSeconds))
	r.add("columns_per_s", median(rates), "col/s", fmt.Sprintf("median of %d slices; whole window %d answered columns / %.3f s", n, t.columnsAnswered, w.wall.Seconds()))
	r.add("latency_p50_ms", median(p50s), "ms", fmt.Sprintf("median of %d slice medians over %d requests", len(p50s), len(t.requests)))
	r.add("latency_p95_ms", p95, "ms", fmt.Sprintf("p95 of %d requests from the %d of %d slices with the lowest median, %d beyond it", len(pool), used, len(byP50), beyond(pool, p95)))
	r.add("answered_share", float64(t.answered)/float64(t.attempted), "ratio", fmt.Sprintf("%d answered / %d attempted requests (failed_share %.4f)", t.answered, t.attempted, float64(t.failed)/float64(t.attempted)))
	r.add("accuracy", float64(t.labelCorrect)/cols, "ratio", fmt.Sprintf("%d labels matched / %d answered columns", t.labelCorrect, t.columnsAnswered))
	tot := w.total()
	r.add("cpu_ms_per_column", median(cpu), "ms/col", fmt.Sprintf("median of %d slices; whole window %.3f CPU s / %d answered columns", len(cpu), tot.cpu.Seconds(), t.columnsAnswered))
	r.add("alloc_kb_per_column", median(alloc), "KB/col", fmt.Sprintf("median of %d slices; whole window %d bytes / %d answered columns", len(alloc), tot.allocs, t.columnsAnswered))
	r.add("fleet_heap_mb", (float64(heapAfter)-float64(heapBefore))/(1<<20), "MB", fmt.Sprintf("live heap %d - %d bytes", heapAfter, heapBefore))
	return nil
}

// poolMin is the fewest requests the tail-latency pool holds: enough
// for minBeyond beyond a p95 with room to spare.
const poolMin = 220

// beyond counts samples strictly above v.
func beyond(samples []float64, v float64) int {
	n := 0
	for _, s := range samples {
		if s > v {
			n++
		}
	}
	return n
}

// perLayer adds the per-layer metrics: span figures of the traced
// window, the replay's per-column figures, and the runtime and load
// generator figures of the untraced window.
func (r *result) perLayer(uw window, ut tally, tw window, tt tally, spans []span, layers map[string]float64) error {
	durs := map[string][]float64{}
	var legs, legBytes, shed int
	self := selfTimes(spans)
	var gwSelf []float64
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		switch s.Name {
		case spanGateway:
			gwSelf = append(gwSelf, float64(self[s.ID])/1e6)
		case spanForward:
			legs++
			legBytes += int(s.Bytes)
			if s.Status == http.StatusTooManyRequests {
				shed++
			}
		}
	}
	p50 := func(name string, samples []float64, base string) error {
		v, err := percentile(samples, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.add(name, v, "ms", fmt.Sprintf("%d %s", len(samples), base))
		return nil
	}
	if err := p50("gateway.handle_ms_p50", durs[spanGateway], "gateway.handle spans"); err != nil {
		return err
	}
	if err := p50("gateway.self_ms_p50", gwSelf, "gateway.handle spans minus their forward legs"); err != nil {
		return err
	}
	if err := p50("gateway.forward_ms_p50", durs[spanForward], "forward legs"); err != nil {
		return err
	}
	if tt.shards == 0 || legs == 0 || tt.columnsSent == 0 {
		return fmt.Errorf("traced window has no answered shard or leg")
	}
	r.add("gateway.legs_per_shard", float64(legs)/float64(tt.shards), "ratio", fmt.Sprintf("%d legs / %d shard groups", legs, tt.shards))
	r.add("gateway.leg_bytes_per_column", float64(legBytes)/float64(tt.columnsSent), "B/col", fmt.Sprintf("%d leg body bytes / %d columns", legBytes, tt.columnsSent))
	r.add("gateway.fallback_share", float64(tt.fallback)/float64(tt.columnsSent), "ratio", fmt.Sprintf("%d rule-fallback columns / %d columns", tt.fallback, tt.columnsSent))
	if err := p50("serve.handle_ms_p50", durs[spanServe], "serve.handle spans"); err != nil {
		return err
	}
	r.add("serve.cache_hit_ratio", float64(tt.cacheHits)/float64(tt.columnsAnswered), "ratio", fmt.Sprintf("%d cache hits / %d answered columns", tt.cacheHits, tt.columnsAnswered))
	r.add("serve.shed_share", float64(shed)/float64(legs), "ratio", fmt.Sprintf("%d legs answered 429 / %d legs", shed, legs))
	for _, m := range replayMetrics {
		r.add(m.name, layers[m.name], m.unit, m.base)
	}
	ut0 := uw.total()
	r.add("runtime.gc_cpu_share", ut0.gcCPU/ut0.allCPU, "ratio", fmt.Sprintf("%.3f GC CPU s / %.3f CPU s, untraced window", ut0.gcCPU, ut0.allCPU))
	late, err := percentile(ut.late, 95)
	if err != nil {
		return fmt.Errorf("loadgen.late_p95_ms: %w", err)
	}
	r.add("loadgen.late_p95_ms", late, "ms", fmt.Sprintf("%d requests of the untraced window, %d beyond p95", len(ut.late), beyond(ut.late, late)))
	outside, total := unaccounted(spans)
	if total == 0 {
		return fmt.Errorf("traced window has no client span")
	}
	r.add("trace.unaccounted_share", float64(outside)/float64(total), "ratio", fmt.Sprintf("%.3f s outside every layer span / %.3f s of client requests", float64(outside)/1e9, float64(total)/1e9))
	ucps := float64(ut.columnsAnswered) / uw.wall.Seconds()
	tcps := float64(tt.columnsAnswered) / tw.wall.Seconds()
	r.add("trace.overhead_share", 1-tcps/ucps, "ratio", fmt.Sprintf("1 - traced %.1f / untraced %.1f columns_per_s", tcps, ucps))
	return nil
}

// replayMetrics lists the replay's figures in report order.
var replayMetrics = []struct{ name, unit, base string }{
	{"serve.decode_us_per_column", "us/col", "json.Unmarshal of the per-shard InferRequest bodies"},
	{"gateway.encode_us_per_column", "us/col", "json.Marshal of one InferRequest per shard"},
	{"serve.encode_us_per_column", "us/col", "json.Marshal of one InferResponse per shard"},
	{"data.read_csv_us_per_column", "us/col", "data.ReadCSVLimited of the tables as CSV"},
	{"serve.hash_us_per_column", "us/col", "serve.ColumnHash"},
	{"gateway.route_us_per_column", "us/col", "Ring.Owner on precomputed keys"},
	{"data.distinct_us_per_column", "us/col", "Column.FirstNDistinct(featurize.SampleCount)"},
	{"stats.compute_us_per_column", "us/col", "stats.Compute on precomputed samples"},
	{"featurize.extract_us_per_column", "us/col", "featurize.ExtractFirstN"},
	{"core.predict_us_per_column", "us/col", "Pipeline.PredictBase on prebuilt bases"},
	{"tree.predict_us_per_column", "us/col", "Forest.PredictProbaInto on prebuilt vectors"},
	{"serve.infer_batch_ms", "ms", "in-process Server.InferBatch, cache off, one 64-column table"},
	{"stats.compute_allocs_per_column", "count", "heap allocations of stats.Compute per column"},
	{"serve.decode_allocs_per_column", "count", "heap allocations of the shard-body decode per column"},
}

// write prints every metric with its unit and base, saves the run record
// under opts.out, and ends standard output with the result line.
func (r *result) write(opts options, stdout io.Writer) error {
	fmt.Fprintf(stdout, "fleetbench %s seed=%d seconds=%g trace=%t cpus=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.NumCPU, r.GOMAXPROCS, r.GoVersion, r.Commit)
	fmt.Fprintf(stdout, "model: %s\n", r.Model)
	for _, w := range r.Windows {
		fmt.Fprintf(stdout, "window %s: %d requests attempted, %d answered, %d failed (transport %d, status %d, wrong answer %d); %d columns attempted, %d answered; %.3f s wall, %.3f s CPU\n",
			w.Name, w.Attempted, w.Answered, w.Failed, w.Transport, w.Status, w.Defects, w.ColumnsSent, w.ColumnsAnswered, w.WallSeconds, w.CPUSeconds)
		if w.FirstFailure != "" {
			fmt.Fprintf(stdout, "  first failure: %s\n", w.FirstFailure)
		}
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(stdout, "INVALID: %s\n", why)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(stdout, "%-34s %14.6g %-7s (%s)\n", m.Name, m.Value, m.Unit, m.Base)
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(opts.out, fmt.Sprintf("run-%s-seed%d-trace%t.json", r.Workload, r.Seed, r.Trace))
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run record: %s\n", path)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Metrics: map[string]value{}}
	for _, w := range r.Windows {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
	}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		line.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
