// Package stats provides the numerical substrate used across the CRH
// framework: means, medians, standard deviations, weighted order statistics,
// correlation, and normalization helpers.
//
// All functions are deterministic, allocate minimally, and treat degenerate
// inputs (empty slices, zero variance, zero total weight) explicitly so that
// callers in the truth-discovery pipeline never observe NaN or Inf unless
// the inputs themselves contain them.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WeightedMean returns the weighted mean of xs with weights ws.
// Panics if the lengths differ. Returns 0 when the total weight is 0.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	var num, den float64
	for i, x := range xs {
		num += ws[i] * x
		den += ws[i]
	}
	if den == 0 {
		return Mean(xs)
	}
	return num / den
}

// Median returns the median of xs (average of the two middle elements for
// even lengths), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	return medianBuf(xs, make([]float64, len(xs)))
}

// medianBuf is Median sorting its copy of xs in caller scratch buf
// (length ≥ len(xs)), so it allocates nothing.
func medianBuf(xs, buf []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := buf[:n]
	copy(tmp, xs)
	slices.Sort(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// WeightedMedian returns the weighted median of xs under weights ws, using
// the definition of Eq(16) in the CRH paper (Cormen et al., Chapter 9): the
// element v such that the total weight of elements strictly below v is less
// than half the total weight, and the total weight of elements strictly
// above v is at most half the total weight.
//
// Non-positive weights are treated as 0. When the total weight is 0 the
// unweighted median is returned. xs and ws are not modified.
func WeightedMedian(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMedian length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	var total float64
	for _, w := range ws {
		total += nonNegative(w)
	}
	if total == 0 {
		return Median(xs)
	}
	return weightedMedianScan(xs, ws, make([]float64, n), total)
}

// nonNegative clamps a negative weight to 0.
func nonNegative(w float64) float64 {
	if w < 0 {
		return 0
	}
	return w
}

// weightedMedianScan is the sort-based Eq(16) scan behind WeightedMedian
// and WeightedMedianBuf's tie fallback; total is the clamped weight sum
// in input order. It sorts a permutation of xs's indices, stored in
// caller scratch idx (length ≥ len(xs); float64 holds every index
// exactly), by value with pdqsort — the algorithm and comparison
// sequence sort.Slice runs — so equal values keep the order, and their
// pooled weights the summation order, of a sort of (value, weight)
// pairs. It allocates nothing.
func weightedMedianScan(xs, ws, idx []float64, total float64) float64 {
	n := len(xs)
	idx = idx[:n]
	for i := range idx {
		idx[i] = float64(i)
	}
	slices.SortFunc(idx, func(a, b float64) int {
		switch x, y := xs[int(a)], xs[int(b)]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})
	half := total / 2
	// Scan distinct values with prefix sums of weight strictly below and
	// strictly above each candidate; ties pool their weight.
	var below float64
	i := 0
	for i < n {
		x := xs[int(idx[i])]
		j := i
		var tie float64
		//lint:ignore floatcmp Eq 16 pools the weight of identical observed values; approximate ties would merge distinct claims
		for j < n && xs[int(idx[j])] == x {
			tie += nonNegative(ws[int(idx[j])])
			j++
		}
		above := total - below - tie
		if below < half && above <= half {
			return x
		}
		below += tie
		i = j
	}
	// Fallback (should be unreachable): return the largest value.
	return xs[int(idx[n-1])]
}

// Variance returns the population variance of xs, or 0 for fewer than one
// element.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// SampleStd returns the sample (n-1) standard deviation of xs, or 0 for
// fewer than two elements.
func SampleStd(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// Returns 0 when either series has zero variance or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MinMax returns the minimum and maximum of xs. Returns (0, 0) for an empty
// slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Normalize01 rescales xs affinely into [0, 1] in place and returns xs.
// When all elements are equal they are all mapped to 1 (a constant series
// carries no ordering information; mapping to the top keeps "higher is
// better" interpretations intact for reliability scores).
func Normalize01(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	min, max := MinMax(xs)
	r := max - min
	if r == 0 {
		for i := range xs {
			xs[i] = 1
		}
		return xs
	}
	for i := range xs {
		xs[i] = (xs[i] - min) / r
	}
	return xs
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ArgMax returns the index of the maximum element of xs, breaking ties in
// favour of the smallest index. Returns -1 for an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x > xs[best] {
			best = i + 1
		}
	}
	return best
}

// ArgMin returns the index of the minimum element of xs, breaking ties in
// favour of the smallest index. Returns -1 for an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x < xs[best] {
			best = i + 1
		}
	}
	return best
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MAD returns the median absolute deviation from the median — the
// standard robust scale estimate. Multiply by 1.4826 (1/Φ⁻¹(¾)) to make
// it consistent with the standard deviation under normality. a and b
// (each of length ≥ len(xs)) are caller-owned scratch, so MAD allocates
// nothing; xs is not modified.
func MAD(xs, a, b []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := medianBuf(xs, a)
	devs := a[:len(xs)]
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return medianBuf(devs, b)
}

// Spearman returns the Spearman rank correlation between xs and ys —
// Pearson over average-ranks, robust to the heavy-tailed magnitudes that
// ratio-scale scores (e.g., inverse-loss weights) produce. Returns 0 when
// either ranking is constant or the lengths differ.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks assigns average ranks (1-based) with ties sharing their mean rank.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//lint:ignore floatcmp average ranks share ties only between exactly equal values
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // mean of ranks i+1..j
		for k := i; k < j; k++ {
			r[idx[k]] = avg
		}
		i = j
	}
	return r
}
