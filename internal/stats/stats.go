package stats

import (
	"math"
	"sync"

	"sortinghat/internal/data"
)

// Stats holds the descriptive statistics extracted from one raw column
// during base featurization. The field set follows Appendix E of the paper:
// counts of values/NaNs/distincts, moments of the numeric casts, moments of
// per-value character/word/stopword/whitespace/delimiter counts, min/max,
// and sample-based boolean checks for URL, email, delimiter sequences,
// lists, and timestamps.
type Stats struct {
	TotalVals int // total number of cells

	NumNaNs int     // absolute number of missing cells
	PctNaNs float64 // percentage of missing cells (0..100)

	NumUnique int     // distinct non-missing values
	PctUnique float64 // distinct as a percentage of total cells (0..100)

	// Moments and range of the values castable to a plain number.
	MeanVal, StdVal float64
	MinVal, MaxVal  float64

	// Fraction (0..1) of non-missing values castable to float / plain int.
	CastableFloatPct float64
	CastableIntPct   float64

	// Moments of per-value character counts.
	MeanCharCount, StdCharCount float64
	// Moments of per-value whitespace-separated word counts.
	MeanWordCount, StdWordCount float64
	// Moments of per-value stopword counts.
	MeanStopwordCount, StdStopwordCount float64
	// Moments of per-value whitespace-character counts.
	MeanWhitespaceCount, StdWhitespaceCount float64
	// Moments of per-value delimiter-character counts.
	MeanDelimCount, StdDelimCount float64

	// Regular-expression and parser checks on the sampled values
	// (true when the majority of the non-missing samples match).
	SampleHasURL      bool
	SampleHasEmail    bool
	SampleHasDelimSeq bool
	SampleHasList     bool
	SampleHasDate     bool
}

// VectorDim is the dimensionality of the numeric encoding of Stats.
const VectorDim = 27

// Vector encodes the stats as a fixed-length float vector for ML models.
// Large magnitudes (means over raw values) are log-compressed to keep
// scale-sensitive models stable; booleans map to {0,1}.
func (s *Stats) Vector() []float64 {
	return s.AppendVector(make([]float64, 0, VectorDim))
}

// AppendVector appends the VectorDim-dimension encoding of s to dst and
// returns the extended slice. It is the allocation-free form of Vector for
// callers assembling a larger feature vector in one buffer.
func (s *Stats) AppendVector(dst []float64) []float64 {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	return append(dst,
		logCompress(float64(s.TotalVals)),
		logCompress(float64(s.NumNaNs)),
		s.PctNaNs,
		logCompress(float64(s.NumUnique)),
		s.PctUnique,
		logCompress(s.MeanVal),
		logCompress(s.StdVal),
		logCompress(s.MinVal),
		logCompress(s.MaxVal),
		s.CastableFloatPct,
		s.CastableIntPct,
		s.MeanCharCount,
		s.StdCharCount,
		s.MeanWordCount,
		s.StdWordCount,
		s.MeanStopwordCount,
		s.StdStopwordCount,
		s.MeanWhitespaceCount,
		s.StdWhitespaceCount,
		s.MeanDelimCount,
		s.StdDelimCount,
		b(s.SampleHasURL),
		b(s.SampleHasEmail),
		b(s.SampleHasDelimSeq),
		b(s.SampleHasList),
		b(s.SampleHasDate),
		b(s.NumUnique == 1), // single-valued column indicator
	)
}

// VectorNames returns the human-readable names of the Vector dimensions, in
// order. Useful for feature-importance reporting and ablations.
func VectorNames() []string {
	return []string{
		"log_total_vals", "log_num_nans", "pct_nans", "log_num_unique",
		"pct_unique", "log_mean_val", "log_std_val", "log_min_val",
		"log_max_val", "castable_float_pct", "castable_int_pct",
		"mean_char_count", "std_char_count", "mean_word_count",
		"std_word_count", "mean_stopword_count", "std_stopword_count",
		"mean_whitespace_count", "std_whitespace_count", "mean_delim_count",
		"std_delim_count", "sample_has_url", "sample_has_email",
		"sample_has_delim_seq", "sample_has_list", "sample_has_date",
		"is_constant",
	}
}

// logCompress maps a possibly huge magnitude to a compact signed log scale.
func logCompress(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Copysign(math.Log1p(math.Abs(v)), v)
}

// Compute extracts the full descriptive statistics for a column, using the
// provided sample values (typically the 5 randomly sampled distinct values
// from base featurization) for the regex/timestamp checks.
//
// It makes one pass over the cells. Each distinct value is classified once
// — missing or not, numeric or not, and its character, word, stopword,
// whitespace and delimiter counts from a single byte-level scan — and a
// repeated value reuses that classification through the distinct-value
// map, which is pooled across calls. The moments are still taken two-pass
// over per-cell series in column order, so every field is bit-identical to
// the multi-pass formulation kept as the test reference.
func Compute(col *data.Column, samples []string) Stats {
	var s Stats
	s.TotalVals = len(col.Values)

	// The per-value series keep one entry per non-missing cell, in column
	// order, for the two-pass moments below. The five count series share
	// one int32 backing: each gets a full-capacity slot (three-index
	// slice), so the appends stay in place and can never grow into a
	// neighbour's slot. The series are per call, not pooled: their bytes
	// then do not depend on which processor's pool slot holds a buffer,
	// so bytes allocated per column stay reproducible run to run.
	n := len(col.Values)
	numVals := make([]float64, 0, n)
	counts := make([]int32, 5*n)
	var (
		charC  = counts[0*n : 0*n : 1*n]
		wordC  = counts[1*n : 1*n : 2*n]
		stopC  = counts[2*n : 2*n : 3*n]
		wsC    = counts[3*n : 3*n : 4*n]
		delimC = counts[4*n : 4*n : 5*n]

		nInt, nFloat, nonMissing int
	)
	seen := getSeen(n)
	defer putSeen(seen)
	for _, v := range col.Values {
		// Every per-cell quantity is a function of the cell's text alone,
		// so a repeated value reuses the classification of its first
		// occurrence; the series still get one entry per cell, in order.
		c, ok := seen[v]
		if !ok {
			c = classify(v)
			seen[v] = c
			if !c.missing {
				s.NumUnique++
			}
		}
		if c.missing {
			s.NumNaNs++
			continue
		}
		nonMissing++
		if c.isFloat {
			numVals = append(numVals, c.f)
			nFloat++
			if c.isInt {
				nInt++
			}
		}
		charC = append(charC, int32(len(v)))
		wordC = append(wordC, c.words)
		stopC = append(stopC, c.stopwords)
		wsC = append(wsC, c.whitespace)
		delimC = append(delimC, c.delims)
	}
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

	s.SampleHasURL = majority(samples, IsURL)
	s.SampleHasEmail = majority(samples, IsEmail)
	s.SampleHasDelimSeq = majority(samples, HasDelimiterSequence)
	s.SampleHasList = majority(samples, IsList)
	s.SampleHasDate = majority(samples, IsDate)
	return s
}

// cell is the classification of one distinct cell value.
type cell struct {
	cellCounts
	f                       float64 // numeric value when isFloat
	missing, isFloat, isInt bool
}

// classify computes everything Compute records about one cell value.
func classify(v string) cell {
	if data.IsMissing(v) {
		return cell{missing: true}
	}
	c := cell{cellCounts: scanCell(v)}
	c.f, c.isFloat = ParseFloat(v)
	c.isInt = c.isFloat && IsInt(v)
	return c
}

// seenPool recycles Compute's distinct-value maps. A sync.Pool, not a
// per-worker map: the runtime drops idle entries at garbage collection, so
// one huge column does not pin its map for the life of the process.
var seenPool sync.Pool

// getSeen returns an empty distinct-value map, pooled when one is idle.
func getSeen(n int) map[string]cell {
	if m, ok := seenPool.Get().(map[string]cell); ok {
		return m
	}
	return make(map[string]cell, n)
}

// putSeen empties m — a pooled map must not keep the column's strings
// alive — and returns it to the pool.
func putSeen(m map[string]cell) {
	clear(m)
	seenPool.Put(m)
}

// majority reports whether pred holds for more than half of the non-missing
// sample values (and for at least one).
func majority(samples []string, pred func(string) bool) bool {
	n, hits := 0, 0
	for _, v := range samples {
		if data.IsMissing(v) {
			continue
		}
		n++
		if pred(v) {
			hits++
		}
	}
	return n > 0 && hits*2 > n
}

// meanStd returns the mean and population standard deviation of vals,
// summing in order in two passes. Integer series convert each element to
// float64 exactly, so they round exactly as a float64 series would.
func meanStd[T float64 | int32](vals []T) (mean, std float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += float64(v)
	}
	mean /= float64(len(vals))
	if len(vals) == 1 {
		return mean, 0
	}
	for _, v := range vals {
		d := float64(v) - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, std
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
