package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: with fewer, the percentile is set by a handful of outliers
// and moves from run to run for no reason in the system.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by the
// nearest-rank rule. It refuses when fewer than minBeyond samples lie
// beyond the rank, so a reported tail always rests on at least that many
// observations. samples is not modified.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(samples)
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank], nil
}

// median is percentile(samples, 50) for small sets that need no tail
// guarantee, such as the repeated set-ups of one run. It returns NaN for
// an empty set.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
