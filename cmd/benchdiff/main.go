// Command benchdiff is the repository's benchmark-regression gate: a
// stdlib-only, benchstat-spirited comparator for `go test -bench` output.
// It parses the benchmark lines of a run, compares each benchmark's
// ns/op, B/op and allocs/op against the latest entry of a committed
// baseline file (BENCH_serve.json at the repo root), and fails when the
// geometric-mean ratio of any gated metric regresses past the tolerance.
//
// Gate mode (the CI job):
//
//	go test -bench "$(BENCH_SET)" -benchmem -benchtime=100x . > bench-latest.txt
//	go run ./cmd/benchdiff -baseline BENCH_serve.json -input bench-latest.txt -tolerance 10%
//
// Snapshot mode (refreshing the committed baseline):
//
//	go run ./cmd/benchdiff -update BENCH_serve.json -input bench-latest.txt -label pr7-after
//
// The baseline file keeps an append-only history of labeled snapshots —
// the repo's perf trajectory — and the gate always compares against the
// newest entry. Metric selection matters across machines: allocs/op and
// B/op are deterministic for a fixed benchtime and gate by default, while
// ns/op varies with hardware and load, so it is only gated when "ns" is
// named in -metrics (use -time-tolerance to give it a looser budget).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metrics holds the three per-benchmark numbers the gate tracks.
type metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// entry is one labeled snapshot in the baseline history.
type entry struct {
	Label string `json:"label"`
	Go    string `json:"go,omitempty"`
	machine
	Benchmarks map[string]metrics `json:"benchmarks"`
}

// machine is what a benchmark run reports about the host it ran on.
// Snapshots taken before benchdiff recorded it leave both fields empty.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	CPU        string `json:"cpu,omitempty"`
}

// baselineFile is the committed perf trajectory: snapshots in the order
// they were taken, newest last.
type baselineFile struct {
	History []entry `json:"history"`
}

// metricDef names one gateable metric and how to read it.
type metricDef struct {
	key  string // flag name: ns, bytes, allocs
	unit string // bench-output unit
	get  func(m metrics) float64
}

var metricDefs = []metricDef{
	{"ns", "ns/op", func(m metrics) float64 { return m.NsOp }},
	{"bytes", "B/op", func(m metrics) float64 { return m.BOp }},
	{"allocs", "allocs/op", func(m metrics) float64 { return m.AllocsOp }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code: 0 clean,
// 1 regression (or missing benchmark), 2 usage or input error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input     = fs.String("input", "-", "benchmark output to read (`file`, or - for stdin)")
		baseline  = fs.String("baseline", "", "baseline `file` to gate against (latest history entry)")
		tolerance = fs.String("tolerance", "10%", "allowed geomean regression for gated metrics (`pct`, e.g. 10%)")
		timeTol   = fs.String("time-tolerance", "30%", "allowed geomean regression for ns/op when gated (`pct`)")
		metricsFl = fs.String("metrics", "allocs,bytes", "comma-separated metrics to gate: allocs, bytes, ns")
		update    = fs.String("update", "", "snapshot mode: append the run to this baseline `file` instead of gating")
		label     = fs.String("label", "", "snapshot label (required with -update); an existing entry with the same label is replaced")
		only      = fs.String("only", "", "gate only benchmarks matching this `regexp` (both sides); others are neither compared nor required")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cur, host, err := readBench(*input)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(cur) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark lines in input")
		return 2
	}

	if *update != "" {
		if *label == "" {
			fmt.Fprintln(stderr, "benchdiff: -update requires -label")
			return 2
		}
		if err := snapshot(*update, *label, host, cur); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "recorded %d benchmark(s) as %q in %s\n", len(cur), *label, *update)
		return 0
	}

	if *baseline == "" {
		fmt.Fprintln(stderr, "benchdiff: need -baseline (gate mode) or -update (snapshot mode)")
		return 2
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	tol, err := parsePct(*tolerance)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: -tolerance: %v\n", err)
		return 2
	}
	ttol, err := parsePct(*timeTol)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: -time-tolerance: %v\n", err)
		return 2
	}
	gated, err := parseMetrics(*metricsFl)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: -only: %v\n", err)
			return 2
		}
		base.Benchmarks = filterNames(base.Benchmarks, re)
		cur = filterNames(cur, re)
		if len(base.Benchmarks) == 0 {
			fmt.Fprintf(stderr, "benchdiff: -only %q matches no baseline benchmark\n", *only)
			return 2
		}
	}
	return gate(stdout, stderr, base, cur, host, gated, tol, ttol)
}

// readBench parses benchmark output from path ("-" = stdin): the
// per-benchmark metrics and the machine the run reports.
func readBench(path string) (map[string]metrics, machine, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, machine{}, err
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, machine{}, err
	}
	out := string(data)
	cur, err := parseBench(out)
	return cur, parseMachine(out), err
}

// parseMachine reads the host facts `go test -bench` prints: the "cpu:"
// header line and the GOMAXPROCS suffix of the first result line. A name
// without a suffix ran at GOMAXPROCS 1 (go test appends it only above 1).
func parseMachine(out string) machine {
	var m machine
	for _, line := range strings.Split(out, "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok && m.CPU == "" {
			m.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		if m.GOMAXPROCS != 0 || len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err == nil {
			_, m.GOMAXPROCS = splitProcs(fields[0])
		}
	}
	return m
}

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// The GOMAXPROCS suffix (Benchmark-8) is stripped so results from machines
// with different core counts compare under one name; repeated runs of the
// same benchmark (-count>1) are averaged.
func parseBench(out string) (map[string]metrics, error) {
	sums := map[string]metrics{}
	counts := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcs(fields[0])
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		var m metrics
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: bad value %q", line, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp = v
			case "B/op":
				m.BOp = v
			case "allocs/op":
				m.AllocsOp = v
			}
		}
		s := sums[name]
		s.NsOp += m.NsOp
		s.BOp += m.BOp
		s.AllocsOp += m.AllocsOp
		sums[name] = s
		counts[name]++
	}
	for name, s := range sums {
		n := float64(counts[name])
		sums[name] = metrics{NsOp: s.NsOp / n, BOp: s.BOp / n, AllocsOp: s.AllocsOp / n}
	}
	return sums, nil
}

// stripProcs removes the trailing -N GOMAXPROCS suffix from a benchmark
// name, leaving sub-benchmark paths intact.
func stripProcs(name string) string {
	base, _ := splitProcs(name)
	return base
}

// splitProcs splits a benchmark name into its base and the GOMAXPROCS it
// ran at (1 when the name carries no -N suffix).
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// filterNames keeps only the benchmarks whose name matches re, so a
// partial run (-only) can be gated without tripping the
// missing-benchmark check for everything that was deliberately not run.
func filterNames(in map[string]metrics, re *regexp.Regexp) map[string]metrics {
	out := make(map[string]metrics, len(in))
	for name, m := range in {
		if re.MatchString(name) {
			out[name] = m
		}
	}
	return out
}

// parsePct parses "10%" or "10" into the fraction 0.10.
func parsePct(s string) (float64, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("not a percentage: %q", s)
	}
	return v / 100, nil
}

// parseMetrics validates the -metrics list against the known metric keys.
func parseMetrics(s string) (map[string]bool, error) {
	out := map[string]bool{}
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		known := false
		for _, d := range metricDefs {
			if d.key == k {
				known = true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown metric %q (valid: ns, bytes, allocs)", k)
		}
		out[k] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -metrics list")
	}
	return out, nil
}

// loadBaseline reads the baseline file and returns its newest entry.
func loadBaseline(path string) (entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return entry{}, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return entry{}, fmt.Errorf("%s: %v", path, err)
	}
	if len(f.History) == 0 {
		return entry{}, fmt.Errorf("%s: empty history", path)
	}
	return f.History[len(f.History)-1], nil
}

// gate compares cur against base and prints a per-benchmark report plus
// per-metric geomeans. It returns 1 when a baseline benchmark is missing
// from the run or a gated metric's geomean regresses past its tolerance.
// Runs taken at different GOMAXPROCS get a notice, not a failure.
func gate(stdout, stderr io.Writer, base entry, cur map[string]metrics, host machine, gated map[string]bool, tol, timeTol float64) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Fprintf(stdout, "baseline: %s\n", base.Label)
	if base.GOMAXPROCS > 0 && host.GOMAXPROCS > 0 && base.GOMAXPROCS != host.GOMAXPROCS {
		fmt.Fprintf(stdout, "notice: baseline ran at GOMAXPROCS=%d (%s), this run at GOMAXPROCS=%d (%s); ns/op and concurrency-dependent numbers may not compare\n",
			base.GOMAXPROCS, orUnknown(base.CPU), host.GOMAXPROCS, orUnknown(host.CPU))
	}
	for _, d := range metricDefs {
		var ratios []float64
		printed := false
		for _, name := range names {
			c, ok := cur[name]
			if !ok {
				continue // reported once, below
			}
			bv, cv := d.get(base.Benchmarks[name]), d.get(c)
			ratio, usable := ratioOf(bv, cv)
			if !usable {
				continue // metric absent on both sides (e.g. no -benchmem)
			}
			if !printed {
				fmt.Fprintf(stdout, "\n%s\n", d.unit)
				printed = true
			}
			ratios = append(ratios, ratio)
			fmt.Fprintf(stdout, "  %-50s %14.2f -> %14.2f  (%+.1f%%)\n", name, bv, cv, (ratio-1)*100)
		}
		if len(ratios) == 0 {
			continue
		}
		gm := geomean(ratios)
		budget := tol
		if d.key == "ns" {
			budget = timeTol
		}
		verdict := "ok"
		if gated[d.key] && gm > 1+budget {
			verdict = fmt.Sprintf("REGRESSION (budget %+.1f%%)", budget*100)
			failed = true
		} else if !gated[d.key] {
			verdict = "informational"
		}
		fmt.Fprintf(stdout, "  %-50s geomean %+.1f%%  %s\n", "", (gm-1)*100, verdict)
	}

	for _, name := range names {
		if _, ok := cur[name]; !ok {
			fmt.Fprintf(stderr, "benchdiff: baseline benchmark %q missing from this run\n", name)
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(stdout, "\nFAIL: benchmark regression (or missing benchmark); if intentional, refresh BENCH_serve.json via make bench-snapshot")
		return 1
	}
	fmt.Fprintln(stdout, "\nok: within tolerance")
	return 0
}

// orUnknown labels an unrecorded CPU model.
func orUnknown(cpu string) string {
	if cpu == "" {
		return "cpu unknown"
	}
	return cpu
}

// ratioOf returns cur/base, treating the 0->0 case as flat and the
// 0->positive case as a maximal regression. The bool is false when the
// metric carries no signal on either side.
func ratioOf(base, cur float64) (float64, bool) {
	switch {
	case base == 0 && cur == 0:
		return 1, false
	case base == 0:
		return math.Inf(1), true
	default:
		return cur / base, true
	}
}

// geomean returns the geometric mean of ratios.
func geomean(ratios []float64) float64 {
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// snapshot appends (or replaces, when the label already exists) an entry
// in the baseline file, creating the file if needed. The entry records
// the machine the run reported.
func snapshot(path, label string, host machine, cur map[string]metrics) error {
	var f baselineFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	e := entry{Label: label, Go: runtime.Version(), machine: host, Benchmarks: cur}
	replaced := false
	for i := range f.History {
		if f.History[i].Label == label {
			f.History[i] = e
			replaced = true
		}
	}
	if !replaced {
		f.History = append(f.History, e)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
