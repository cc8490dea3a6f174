package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sortinghat/internal/data"
)

func TestComputeBasics(t *testing.T) {
	col := &data.Column{Name: "x", Values: []string{"1", "2", "2", "", "NA", "3"}}
	s := Compute(col, []string{"1", "2", "3"})
	if s.TotalVals != 6 {
		t.Errorf("TotalVals = %d", s.TotalVals)
	}
	if s.NumNaNs != 2 {
		t.Errorf("NumNaNs = %d", s.NumNaNs)
	}
	if s.NumUnique != 3 {
		t.Errorf("NumUnique = %d", s.NumUnique)
	}
	if math.Abs(s.PctNaNs-100.0*2/6) > 1e-9 {
		t.Errorf("PctNaNs = %f", s.PctNaNs)
	}
	if s.CastableFloatPct != 1 || s.CastableIntPct != 1 {
		t.Errorf("castable fractions = %f/%f", s.CastableFloatPct, s.CastableIntPct)
	}
	if math.Abs(s.MeanVal-2) > 1e-9 {
		t.Errorf("MeanVal = %f", s.MeanVal)
	}
	if s.MinVal != 1 || s.MaxVal != 3 {
		t.Errorf("min/max = %f/%f", s.MinVal, s.MaxVal)
	}
}

func TestComputeSampleChecks(t *testing.T) {
	col := &data.Column{Name: "u", Values: []string{"https://a.com", "https://b.org"}}
	s := Compute(col, []string{"https://a.com", "https://b.org"})
	if !s.SampleHasURL {
		t.Error("SampleHasURL = false for URL samples")
	}
	if s.SampleHasDate || s.SampleHasList {
		t.Error("unexpected date/list flags")
	}

	dateCol := &data.Column{Name: "d", Values: []string{"2020-01-01", "2020-02-02"}}
	ds := Compute(dateCol, []string{"2020-01-01", "2020-02-02"})
	if !ds.SampleHasDate {
		t.Error("SampleHasDate = false for ISO dates")
	}
}

func TestComputeMajorityRule(t *testing.T) {
	// 1 of 3 samples is a URL: majority fails.
	col := &data.Column{Name: "m", Values: []string{"x"}}
	s := Compute(col, []string{"https://a.com", "plain", "other"})
	if s.SampleHasURL {
		t.Error("minority match should not set the flag")
	}
	s = Compute(col, []string{"https://a.com", "https://b.com", "other"})
	if !s.SampleHasURL {
		t.Error("majority match should set the flag")
	}
	// All-missing samples never match.
	s = Compute(col, []string{"", "NA"})
	if s.SampleHasURL || s.SampleHasDate {
		t.Error("missing samples must not match")
	}
}

func TestComputeEmptyColumn(t *testing.T) {
	col := &data.Column{Name: "e", Values: nil}
	s := Compute(col, nil)
	if s.TotalVals != 0 || s.PctNaNs != 0 || s.NumUnique != 0 {
		t.Errorf("empty column stats: %+v", s)
	}
	v := s.Vector()
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("vector[%d] not finite: %v", i, x)
		}
	}
}

func TestVectorShape(t *testing.T) {
	var s Stats
	if len(s.Vector()) != VectorDim {
		t.Fatalf("Vector len = %d, want %d", len(s.Vector()), VectorDim)
	}
	if len(VectorNames()) != VectorDim {
		t.Fatalf("VectorNames len = %d, want %d", len(VectorNames()), VectorDim)
	}
}

// TestVectorAlwaysFinite is a property test: no column contents may produce
// NaN or infinite features.
func TestVectorAlwaysFinite(t *testing.T) {
	f := func(vals []string) bool {
		col := &data.Column{Name: "p", Values: vals}
		samples := vals
		if len(samples) > 5 {
			samples = samples[:5]
		}
		s := Compute(col, samples)
		for _, x := range s.Vector() {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return s.PctNaNs >= 0 && s.PctNaNs <= 100 && s.PctUnique >= 0 && s.PctUnique <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMeanStdAgainstNaive checks Compute's two-pass moments against a
// naive implementation on random numeric columns.
func TestMeanStdAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50) + 2
		vals := make([]string, n)
		fs := make([]float64, n)
		for i := range vals {
			fs[i] = rng.NormFloat64() * 10
			vals[i] = fmt.Sprintf("%.6f", fs[i])
			fs[i], _ = ParseFloat(vals[i])
		}
		col := &data.Column{Name: "n", Values: vals}
		s := Compute(col, vals[:1])
		var mean float64
		for _, v := range fs {
			mean += v
		}
		mean /= float64(n)
		var ss float64
		for _, v := range fs {
			ss += (v - mean) * (v - mean)
		}
		std := math.Sqrt(ss / float64(n))
		if math.Abs(s.MeanVal-mean) > 1e-9 || math.Abs(s.StdVal-std) > 1e-9 {
			t.Fatalf("trial %d: mean/std = %f/%f, want %f/%f", trial, s.MeanVal, s.StdVal, mean, std)
		}
	}
}

func TestLogCompress(t *testing.T) {
	if logCompress(0) != 0 {
		t.Error("logCompress(0) != 0")
	}
	if logCompress(-10) >= 0 {
		t.Error("sign not preserved")
	}
	if logCompress(math.NaN()) != 0 || logCompress(math.Inf(1)) != 0 {
		t.Error("non-finite input must map to 0")
	}
	if logCompress(1e18) > 50 {
		t.Error("compression too weak")
	}
}
