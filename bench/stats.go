package main

import (
	"math"
	"slices"
)

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest value with at least p% of the samples at or below
// it. xs is sorted in place. Nearest rank always returns a sample, so a
// percentile of a deterministic workload is exactly one op's latency.
func nearestRank(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same exclusive method as Python's statistics.quantiles(xs,
// n=4), so spreads computed here match ones computed from the same
// values there. xs is not modified. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	n := len(s)
	for i := 1; i <= 3; i++ {
		// Python clamps j to 1..n-1 and keeps the delta of the clamped
		// j, which extrapolates on samples of two or three.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound has to exceed.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// median of float samples (the quartiles' middle value).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
