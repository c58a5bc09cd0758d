package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. The result is always one of the samples, so
// it can never exceed the observed maximum the way a bucket
// interpolation can. xs need not be sorted; it is not modified. NaN for
// an empty sample.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// beyond counts the samples strictly above the p-th nearest-rank
// percentile: the number of samples a tail estimate rests on.
func beyond(xs []float64, p float64) int {
	v := nearestRank(xs, p)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), so spreads printed here match the ones
// computed from the run records. A single sample is its own quartiles;
// NaN for an empty sample.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld, n := len(s), 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// median returns the middle quartile of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range of xs as a share of its median: the
// steadiness figure the benchmark's bounds are judged against, printed
// here for the rounds and set-ups within one run.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
