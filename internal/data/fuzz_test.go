package data

import (
	"strings"
	"testing"
)

// FuzzIsMissing checks the allocation-free IsMissing against the plain
// lower-case-and-look-up formulation.
func FuzzIsMissing(f *testing.F) {
	for _, seed := range []string{
		"", " ", "NA", "na", " N/A ", "NaN", "NULL", "None", "-", "?", "#NULL",
		"#N/A", "Missing", "\u00a0NA", "\u212a", "\u0130", "n\u0130l", "value",
		"\tnull\n", strings.Repeat("A", 300), "nA\u00a0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got, want := IsMissing(v), MissingTokens[strings.ToLower(strings.TrimSpace(v))]; got != want {
			t.Fatalf("IsMissing(%q) = %v, want %v", v, got, want)
		}
	})
}

// TestIsMissingAllocs pins IsMissing allocation-free on ASCII cells that
// fit its stack buffer, whatever their case.
func TestIsMissingAllocs(t *testing.T) {
	cells := []string{"NA", " n/a ", "Some Text Value", "12.5", "#NULL", strings.Repeat("Ab", 100)}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range cells {
			IsMissing(v)
		}
	}); n != 0 {
		t.Errorf("IsMissing allocates %v times per run, want 0", n)
	}
}
