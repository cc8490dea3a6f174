package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOut = `goos: linux
goarch: amd64
pkg: sortinghat
cpu: Some CPU @ 2.70GHz
BenchmarkFeaturizeColumn-8   	     100	    263635 ns/op	   67401 B/op	     426 allocs/op
BenchmarkTreePredict-8       	     100	     13350 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeInfer/workers2-8 	      20	  16000000 ns/op	 5000000 B/op	   60000 allocs/op
PASS
ok  	sortinghat	2.014s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(sampleOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	m, ok := got["BenchmarkFeaturizeColumn"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if m.NsOp != 263635 || m.BOp != 67401 || m.AllocsOp != 426 {
		t.Errorf("FeaturizeColumn metrics = %+v", m)
	}
	if _, ok := got["BenchmarkServeInfer/workers2"]; !ok {
		t.Error("sub-benchmark path lost")
	}
	if m := got["BenchmarkTreePredict"]; m.AllocsOp != 0 {
		t.Errorf("TreePredict allocs = %v, want 0", m.AllocsOp)
	}
}

func TestParseBenchAveragesRepeatedRuns(t *testing.T) {
	out := "BenchmarkX-4 10 100 ns/op 10 B/op 1 allocs/op\n" +
		"BenchmarkX-4 10 300 ns/op 30 B/op 3 allocs/op\n"
	got, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkX"]
	if m.NsOp != 200 || m.BOp != 20 || m.AllocsOp != 2 {
		t.Errorf("averaged metrics = %+v, want 200/20/2", m)
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":              "BenchmarkX",
		"BenchmarkX":                "BenchmarkX",
		"BenchmarkX/workers4-16":    "BenchmarkX/workers4",
		"BenchmarkX/trees25_depth5": "BenchmarkX/trees25_depth5",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 0.5}); math.Abs(g-1) > 1e-12 {
		t.Errorf("geomean(2, 0.5) = %v, want 1", g)
	}
	if g := geomean([]float64{1.1, 1.1}); math.Abs(g-1.1) > 1e-12 {
		t.Errorf("geomean(1.1, 1.1) = %v, want 1.1", g)
	}
}

func TestParsePct(t *testing.T) {
	for in, want := range map[string]float64{"10%": 0.10, "10": 0.10, "2.5%": 0.025, "0": 0} {
		got, err := parsePct(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parsePct(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parsePct("-3%"); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := parsePct("ten"); err == nil {
		t.Error("non-numeric tolerance accepted")
	}
}

// runCLI drives run() with an input file and returns exit code + output.
func runCLI(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeFile drops content into the test's temp dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSnapshotAndGateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", sampleOut)
	baseline := filepath.Join(dir, "BENCH.json")

	code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "before", "-input", in})
	if code != 0 {
		t.Fatalf("snapshot exit %d: %s", code, errb)
	}

	// Identical run gates clean.
	code, out, errb := runCLI(t, []string{"-baseline", baseline, "-input", in})
	if code != 0 {
		t.Fatalf("identical run exit %d: %s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "ok: within tolerance") {
		t.Errorf("missing ok verdict:\n%s", out)
	}

	// A 50%% alloc regression on one benchmark blows the 10%% geomean gate.
	worse := strings.Replace(sampleOut, "426 allocs/op", "639 allocs/op", 1)
	worse = strings.Replace(worse, "67401 B/op", "101101 B/op", 1)
	inWorse := writeFile(t, dir, "worse.txt", worse)
	code, out, _ = runCLI(t, []string{"-baseline", baseline, "-input", inWorse, "-tolerance", "10%"})
	if code != 1 {
		t.Fatalf("regressed run exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("missing REGRESSION verdict:\n%s", out)
	}

	// The same regression passes under a huge tolerance.
	code, _, _ = runCLI(t, []string{"-baseline", baseline, "-input", inWorse, "-tolerance", "100%"})
	if code != 0 {
		t.Fatalf("tolerant run exit %d, want 0", code)
	}

	// ns/op is informational by default: a pure time regression passes.
	slower := strings.Replace(sampleOut, "263635 ns/op", "963635 ns/op", 1)
	inSlow := writeFile(t, dir, "slow.txt", slower)
	code, out, _ = runCLI(t, []string{"-baseline", baseline, "-input", inSlow})
	if code != 0 {
		t.Fatalf("time-only regression exit %d, want 0 (ns not gated):\n%s", code, out)
	}
	// ...but fails once ns is gated with a tight budget.
	code, _, _ = runCLI(t, []string{"-baseline", baseline, "-input", inSlow,
		"-metrics", "allocs,bytes,ns", "-time-tolerance", "5%"})
	if code != 1 {
		t.Fatalf("gated ns regression exit %d, want 1", code)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", sampleOut)
	baseline := filepath.Join(dir, "BENCH.json")
	if code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "b", "-input", in}); code != 0 {
		t.Fatal(errb)
	}
	// Drop one benchmark from the new run: the gate must fail loudly
	// rather than report a clean (but hollow) comparison.
	lines := strings.Split(sampleOut, "\n")
	var kept []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "BenchmarkTreePredict") {
			kept = append(kept, l)
		}
	}
	inPartial := writeFile(t, dir, "partial.txt", strings.Join(kept, "\n"))
	code, _, errb := runCLI(t, []string{"-baseline", baseline, "-input", inPartial})
	if code != 1 {
		t.Fatalf("partial run exit %d, want 1", code)
	}
	if !strings.Contains(errb, "missing from this run") {
		t.Errorf("missing-benchmark message absent: %s", errb)
	}
}

func TestSnapshotReplacesSameLabel(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", sampleOut)
	baseline := filepath.Join(dir, "BENCH.json")
	for i := 0; i < 2; i++ {
		if code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "same", "-input", in}); code != 0 {
			t.Fatal(errb)
		}
	}
	if code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "other", "-input", in}); code != 0 {
		t.Fatal(errb)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"label"`); n != 2 {
		t.Errorf("history has %d entries, want 2 (same-label replaced):\n%s", n, data)
	}
	// The gate compares against the newest entry.
	e, err := loadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if e.Label != "other" {
		t.Errorf("latest entry %q, want \"other\"", e.Label)
	}
}

func TestZeroToPositiveAllocsIsRegression(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", sampleOut)
	baseline := filepath.Join(dir, "BENCH.json")
	if code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "b", "-input", in}); code != 0 {
		t.Fatal(errb)
	}
	// TreePredict goes from 0 allocs/op to 2: ratio is infinite, and no
	// finite tolerance may forgive losing a zero-alloc invariant.
	broken := strings.Replace(sampleOut,
		"13350 ns/op	       0 B/op	       0 allocs/op",
		"13350 ns/op	      64 B/op	       2 allocs/op", 1)
	inBroken := writeFile(t, dir, "broken.txt", broken)
	code, out, _ := runCLI(t, []string{"-baseline", baseline, "-input", inBroken, "-tolerance", "500%"})
	if code != 1 {
		t.Fatalf("zero->positive allocs exit %d, want 1:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", sampleOut)
	for _, args := range [][]string{
		{"-input", in}, // neither -baseline nor -update
		{"-update", filepath.Join(dir, "x.json"), "-input", in}, // -update without -label
		{"-baseline", filepath.Join(dir, "absent.json"), "-input", in},
		{"-baseline", in, "-input", in}, // not JSON
		{"-input", filepath.Join(dir, "empty.txt")},
	} {
		if code, _, _ := runCLI(t, args); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
	empty := writeFile(t, dir, "none.txt", "PASS\nok x 1s\n")
	if code, _, _ := runCLI(t, []string{"-baseline", in, "-input", empty}); code != 2 {
		t.Errorf("no-benchmark input: want exit 2")
	}
}

// TestOnlyRestrictsGate pins the -only flag: a partial run gates only
// the matching benchmarks — a baseline benchmark outside the filter is
// neither compared nor reported missing, and a regression inside the
// filter still fails. An -only matching nothing in the baseline is a
// usage error, not a silently empty (vacuously green) gate.
func TestOnlyRestrictsGate(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "bench.txt", sampleOut)
	baseline := filepath.Join(dir, "BENCH.json")
	if code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "b", "-input", in}); code != 0 {
		t.Fatal(errb)
	}

	// A run holding only ServeInfer must pass when -only scopes the gate
	// to it, even though the other baseline benchmarks are absent.
	partial := writeFile(t, dir, "partial.txt",
		"BenchmarkServeInfer/workers2-8 \t      20\t  16000000 ns/op\t 5000000 B/op\t   60000 allocs/op\n")
	code, out, errb := runCLI(t, []string{"-baseline", baseline, "-input", partial, "-only", "BenchmarkServeInfer/"})
	if code != 0 {
		t.Fatalf("scoped gate exit %d, want 0:\n%s%s", code, out, errb)
	}
	if strings.Contains(errb, "missing from this run") {
		t.Errorf("filtered-out benchmarks reported missing: %s", errb)
	}

	// Same scope, 0% tolerance: one extra alloc/op inside the filter
	// must still fail.
	worse := writeFile(t, dir, "worse.txt",
		"BenchmarkServeInfer/workers2-8 \t      20\t  16000000 ns/op\t 5000000 B/op\t   60001 allocs/op\n")
	code, out, _ = runCLI(t, []string{"-baseline", baseline, "-input", worse, "-only", "BenchmarkServeInfer/", "-tolerance", "0%"})
	if code != 1 {
		t.Fatalf("scoped regression exit %d, want 1:\n%s", code, out)
	}

	if code, _, errb = runCLI(t, []string{"-baseline", baseline, "-input", partial, "-only", "NoSuchBenchmark"}); code != 2 {
		t.Errorf("-only with no baseline match exit %d, want 2 (%s)", code, errb)
	}
}

// TestSnapshotRecordsMachine pins the machine facts in new snapshot
// entries: the GOMAXPROCS suffix of the result lines (absent means 1) and
// the "cpu:" header line.
func TestSnapshotRecordsMachine(t *testing.T) {
	if m := parseMachine(sampleOut); m.GOMAXPROCS != 8 || m.CPU != "Some CPU @ 2.70GHz" {
		t.Errorf("parseMachine(sampleOut) = %+v, want GOMAXPROCS 8 on Some CPU @ 2.70GHz", m)
	}
	if m := parseMachine("BenchmarkX 10 100 ns/op\n"); m.GOMAXPROCS != 1 || m.CPU != "" {
		t.Errorf("parseMachine(unsuffixed) = %+v, want GOMAXPROCS 1, no cpu", m)
	}

	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH.json")
	in := writeFile(t, dir, "bench.txt", sampleOut)
	if code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "b", "-input", in}); code != 0 {
		t.Fatal(errb)
	}
	e, err := loadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if e.GOMAXPROCS != 8 || e.CPU != "Some CPU @ 2.70GHz" {
		t.Errorf("snapshot entry machine = %+v, want GOMAXPROCS 8 on Some CPU @ 2.70GHz", e.machine)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"gomaxprocs": 8`) || !strings.Contains(string(data), `"cpu": "Some CPU @ 2.70GHz"`) {
		t.Errorf("snapshot file lacks the machine fields:\n%s", data)
	}
}

// TestGateNoticesGOMAXPROCSMismatch pins that comparing runs taken at
// different GOMAXPROCS prints a notice but does not fail the gate, and
// that matching runs (or a baseline without machine facts) print none.
func TestGateNoticesGOMAXPROCSMismatch(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH.json")
	in := writeFile(t, dir, "bench.txt", sampleOut)
	if code, _, errb := runCLI(t, []string{"-update", baseline, "-label", "b", "-input", in}); code != 0 {
		t.Fatal(errb)
	}
	code, out, _ := runCLI(t, []string{"-baseline", baseline, "-input", in})
	if code != 0 || strings.Contains(out, "notice:") {
		t.Errorf("same-GOMAXPROCS gate: exit %d, output:\n%s", code, out)
	}

	two := writeFile(t, dir, "two.txt", strings.ReplaceAll(sampleOut, "-8 ", "-2 "))
	code, out, _ = runCLI(t, []string{"-baseline", baseline, "-input", two})
	if code != 0 {
		t.Fatalf("GOMAXPROCS mismatch exit %d, want 0 (notice only):\n%s", code, out)
	}
	if !strings.Contains(out, "notice: baseline ran at GOMAXPROCS=8") || !strings.Contains(out, "this run at GOMAXPROCS=2") {
		t.Errorf("missing GOMAXPROCS notice:\n%s", out)
	}

	// An entry recorded before machine facts existed carries no
	// GOMAXPROCS, so there is nothing to compare and no notice.
	legacy := writeFile(t, dir, "legacy.json", `{"history":[{"label":"old","benchmarks":{"BenchmarkTreePredict":{"ns_op":1,"b_op":0,"allocs_op":0}}}]}`)
	code, out, _ = runCLI(t, []string{"-baseline", legacy, "-input", two, "-only", "BenchmarkTreePredict"})
	if code != 0 || strings.Contains(out, "notice:") {
		t.Errorf("legacy baseline gate: exit %d, output:\n%s", code, out)
	}
}
