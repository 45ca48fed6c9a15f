package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no values. The input is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, the smallest sample with at least p % of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 99.9 % of 1000 at rank 999 despite binary rounding.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), so in-run window
// spreads read on the same scale as the run-to-run spreads the driver takes.
// It needs at least two values and a non-zero median; otherwise 0.
func quartileSpread(values []float64) float64 {
	med := median(values)
	if len(values) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q1, q3 := quartile(s, 1), quartile(s, 3)
	return math.Abs((q3 - q1) / med)
}

func quartile(sorted []float64, i int) float64 {
	const n = 4
	ld := len(sorted)
	j := i * (ld + 1) / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := i*(ld+1) - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
}
