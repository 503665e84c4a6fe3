package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as supported: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples and whether at least minBeyond samples lie strictly beyond it.
// An unsupported percentile is still returned, so a fixed metric set can be
// printed, but reports mark it and nothing should be claimed from it.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, which it sorts in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// relDiff is |a-b| as a share of their mean, the spread -selfcheck reports
// between two runs of one metric.
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
