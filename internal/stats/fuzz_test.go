package stats

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"sortinghat/internal/data"
	"sortinghat/internal/synth"
)

// fuzzColumn splits a fuzz input into cells on newlines and samples it the
// way serving does (first five distinct non-missing values).
func fuzzColumn(raw string) (*data.Column, []string) {
	col := &data.Column{Name: "f", Values: strings.Split(raw, "\n")}
	return col, col.FirstNDistinct(5)
}

// checkCompute fails t when Compute and the multi-pass reference disagree
// in any bit of any field.
func checkCompute(t *testing.T, col *data.Column, samples []string) {
	t.Helper()
	got, want := Compute(col, samples), refCompute(col, samples)
	if f := statsDiff(got, want); f != "" {
		t.Fatalf("column %q (%d cells, samples %q): field %s differs\ngot:  %+v\nwant: %+v",
			col.Name, len(col.Values), samples, f, got, want)
	}
}

// FuzzCompute differentially tests the one-pass Compute against the
// original multi-pass formulation, field by field and bit by bit.
func FuzzCompute(f *testing.F) {
	for _, seed := range []string{
		"1\n2\n2\n\nNA\n3",
		"https://a.com\nhttps://b.org\nn/a",
		"2020-01-02\n2021-03-04\n-\n2022-12-31",
		"The cat and the dog.\n(a) is IT\nwhich, there; their|about",
		"\u00a0NA\n\u212a\nKévin\nnaïve café",
		"1e400\n-0\n+inf\nnan\n0x1p-2\n1_000\n.5\n5.",
		"a\tb\r\nc\vd\fe\u0085f g",
		"rock|pop|jazz\nru; uk; mx\na, b, c",
		"3:04 PM\nJan 2, 2006\nMonday, January 2, 2006\n02-Jan-2006",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		col, samples := fuzzColumn(raw)
		checkCompute(t, col, samples)
	})
}

// FuzzParseFloat checks ParseFloat, pre-screen included, against plain
// strconv.ParseFloat on the trimmed cell.
func FuzzParseFloat(f *testing.F) {
	for _, seed := range []string{
		"45", " -3.25 ", "1e3", "005", "", "USD 45", "1,234", "2020-01-02",
		"face", "inf", "-Infinity", "+nan", "NaN", "0x1p-2", "0x", "1_000",
		"_1", "1e", "1e+", ".", "-.5e-3", "1..2", "1e400", "infin",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		got, ok := ParseFloat(v)
		want, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseFloat(%q) = %v, %v; strconv gives %v, %v", v, got, ok, want, err)
		}
	})
}

// FuzzIsDate checks the screened IsDate against the plain 24-layout
// time.Parse loop.
func FuzzIsDate(f *testing.F) {
	for _, seed := range []string{
		"2020-01-02", "2020/01/02", "01/02/2020", "1/2/2020", "02.01.2020",
		"2020-01-02 15:04:05", "2020-01-02T15:04:05Z", "2020-01-02T15:04:05+05:30",
		"Jan 2, 2020", "January 2, 2020", "2 Jan 2020", "Jan-20", "2020-01",
		"15:04", "3:04 PM", "Mon, 02 Jan 2020", "02-Jan-2020", "2-Jan-20",
		"21hrs:15min:3sec", "12.5", "-1234.56", "room 5", "2020-13-45",
		"+202-01-02", "jan 2006", "15:04:05.123",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got, want := IsDate(v), refIsDate(v); got != want {
			t.Fatalf("IsDate(%q) = %v, time.Parse loop gives %v", v, got, want)
		}
	})
}

// TestComputeMatchesReference runs the differential check over the synth
// corpus and the downstream suite: every Stats field bit-identical.
func TestComputeMatchesReference(t *testing.T) {
	cfg := synth.DefaultCorpusConfig()
	cfg.N = 600
	if testing.Short() {
		cfg.N = 100
	}
	rng := rand.New(rand.NewSource(1))
	for _, lc := range synth.GenerateCorpus(cfg) {
		col := lc.Column
		checkCompute(t, &col, col.FirstNDistinct(5))
		// Training samples at random, so also check non-prefix samples.
		distinct := col.DistinctNonMissing()
		rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
		checkCompute(t, &col, distinct[:min(5, len(distinct))])
	}
	for _, ds := range synth.GenerateSuite(1) {
		for i := range ds.Data.Columns {
			col := &ds.Data.Columns[i]
			checkCompute(t, col, col.FirstNDistinct(5))
		}
	}
}

// TestDateScreensAdmitEveryLayout checks the screens never reject a value
// time.Parse accepts: each layout formats a spread of instants (including
// single-digit fields, midnight, noon and offsets), and IsDate must agree
// with the unscreened loop on every one.
func TestDateScreensAdmitEveryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600+1800), time.FixedZone("", -8*3600)}
	for i := 0; i < 400; i++ {
		at := time.Date(1900+rng.Intn(250), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, zones[i%len(zones)])
		for li, layout := range dateLayouts {
			v := at.Format(layout)
			sh := shapeOf(v)
			if _, err := time.Parse(layout, v); err == nil && !dateScreens[li].admits(v, &sh) {
				t.Fatalf("screen of %q rejects %q, which time.Parse accepts", layout, v)
			}
			if got, want := IsDate(v), refIsDate(v); got != want {
				t.Fatalf("IsDate(%q) = %v, want %v", v, got, want)
			}
		}
	}
}

// TestScanCellMatchesHelpers pins the one-pass scanner to the exported
// rune-based Count* helpers on hand-picked edge cases.
func TestScanCellMatchesHelpers(t *testing.T) {
	for _, v := range []string{
		"", " ", "a", "The", "(the)", "\"It's\"", "and/or", "a\tb\nc\rd\ve\ff",
		"  leading and trailing  ", "which,there;their|about", "ABOUT!!", "...",
		"x\u00a0y", "\u212a", "café and the", "\xff\xfe the", "12 34.5 -6",
	} {
		got := scanCell(v)
		want := cellCounts{int32(CountWords(v)), int32(CountStopwords(v)), int32(CountWhitespace(v)), int32(CountDelimiters(v))}
		if got != want {
			t.Errorf("scanCell(%q) = %+v, want %+v", v, got, want)
		}
	}
}

// raceEnabled reports whether the race detector is on (race_test.go sets
// it); under it sync.Pool drops pooled items at random, so allocation
// counts are not pinned.
var raceEnabled bool

// TestComputeAllocs pins the steady-state allocation count: with a warm
// pool, a Compute call allocates only its per-call series.
func TestComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	col := &data.Column{Name: "a", Values: []string{"1", "2.5", "NA", "The cat", "x,y;z", "2020-01-02", "\u00a0n/a"}}
	samples := col.FirstNDistinct(5)
	Compute(col, samples)
	if n := testing.AllocsPerRun(100, func() { Compute(col, samples) }); n > 2 {
		t.Errorf("Compute allocates %v times per call, want <= 2", n)
	}
}
