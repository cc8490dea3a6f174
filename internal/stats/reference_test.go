package stats

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"

	"sortinghat/internal/data"
)

// This file keeps the original multi-pass Compute as the differential
// reference for the one-pass implementation. Its body is the former
// production code verbatim, with the shared classifiers swapped for the
// plain formulations they replaced (refIsMissing, refParseFloat and
// refIsDate), so a divergence in either layer shows up here. The rune-based
// Count* helpers and the regexp sample checks are still exported and
// unchanged, so the reference calls them directly.

// refIsMissing is the original allocation-heavy missing-value check.
func refIsMissing(v string) bool {
	return data.MissingTokens[strings.ToLower(strings.TrimSpace(v))]
}

// refParseFloat is ParseFloat without any pre-screen.
func refParseFloat(v string) (float64, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// refIsDate is the original IsDate: every layout goes to time.Parse.
func refIsDate(v string) bool {
	v = strings.TrimSpace(v)
	if v == "" || len(v) > 40 {
		return false
	}
	if hmsRe.MatchString(v) {
		return true
	}
	if !strings.ContainsAny(v, "0123456789") {
		return false
	}
	for _, layout := range dateLayouts {
		if _, err := time.Parse(layout, v); err == nil {
			return true
		}
	}
	return false
}

// refCompute is the original multi-pass Compute.
func refCompute(col *data.Column, samples []string) Stats {
	var s Stats
	s.TotalVals = len(col.Values)

	// One backing allocation feeds all six per-value series. Each series
	// gets a full-capacity slot (three-index slice), so the appends below
	// stay in place and can never grow into a neighbour's slot.
	n := len(col.Values)
	backing := make([]float64, 6*n)
	var (
		numVals = backing[0*n : 0*n : 1*n]
		charC   = backing[1*n : 1*n : 2*n]
		wordC   = backing[2*n : 2*n : 3*n]
		stopC   = backing[3*n : 3*n : 4*n]
		wsC     = backing[4*n : 4*n : 5*n]
		delimC  = backing[5*n : 5*n : 6*n]

		nInt, nFloat, nonMissing int
	)
	seen := make(map[string]struct{}, len(col.Values))
	for _, v := range col.Values {
		if refIsMissing(v) {
			s.NumNaNs++
			continue
		}
		nonMissing++
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
		}
		if f, ok := refParseFloat(v); ok {
			numVals = append(numVals, f)
			nFloat++
			if IsInt(v) {
				nInt++
			}
		}
		charC = append(charC, float64(len(v)))
		wordC = append(wordC, float64(CountWords(v)))
		stopC = append(stopC, float64(CountStopwords(v)))
		wsC = append(wsC, float64(CountWhitespace(v)))
		delimC = append(delimC, float64(CountDelimiters(v)))
	}
	s.NumUnique = len(seen)
	if s.TotalVals > 0 {
		s.PctNaNs = 100 * float64(s.NumNaNs) / float64(s.TotalVals)
		s.PctUnique = 100 * float64(s.NumUnique) / float64(s.TotalVals)
	}
	if nonMissing > 0 {
		s.CastableFloatPct = float64(nFloat) / float64(nonMissing)
		s.CastableIntPct = float64(nInt) / float64(nonMissing)
	}
	s.MeanVal, s.StdVal = meanStd(numVals)
	s.MinVal, s.MaxVal = minMax(numVals)
	s.MeanCharCount, s.StdCharCount = meanStd(charC)
	s.MeanWordCount, s.StdWordCount = meanStd(wordC)
	s.MeanStopwordCount, s.StdStopwordCount = meanStd(stopC)
	s.MeanWhitespaceCount, s.StdWhitespaceCount = meanStd(wsC)
	s.MeanDelimCount, s.StdDelimCount = meanStd(delimC)

	s.SampleHasURL = refMajority(samples, IsURL)
	s.SampleHasEmail = refMajority(samples, IsEmail)
	s.SampleHasDelimSeq = refMajority(samples, HasDelimiterSequence)
	s.SampleHasList = refMajority(samples, IsList)
	s.SampleHasDate = refMajority(samples, refIsDate)
	return s
}

// refMajority is the original majority over refIsMissing.
func refMajority(samples []string, pred func(string) bool) bool {
	n, hits := 0, 0
	for _, v := range samples {
		if refIsMissing(v) {
			continue
		}
		n++
		if pred(v) {
			hits++
		}
	}
	return n > 0 && hits*2 > n
}

// statsDiff returns the name of the first Stats field whose bits differ
// between got and want ("" when every field is bit-identical). Floats
// compare by math.Float64bits, so NaN payloads and signed zeros count.
func statsDiff(got, want Stats) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i), w.Field(i)
		var same bool
		switch gf.Kind() {
		case reflect.Float64:
			same = math.Float64bits(gf.Float()) == math.Float64bits(wf.Float())
		case reflect.Int:
			same = gf.Int() == wf.Int()
		case reflect.Bool:
			same = gf.Bool() == wf.Bool()
		default:
			panic("statsDiff: unhandled field kind " + gf.Kind().String())
		}
		if !same {
			return g.Type().Field(i).Name
		}
	}
	return ""
}
