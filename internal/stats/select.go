package stats

// WeightedMedianBuf computes the weighted median of WeightedMedian (the
// Eq(16) element) in expected O(n) time via weighted quickselect,
// instead of O(n log n) sorting. The truth update calls it once per
// continuous entry per iteration, so it is the solver's hottest path on
// continuous-heavy data.
//
// vbuf and wbuf (each of length ≥ len(xs)) are caller-owned scratch
// holding the partitioned working copies, so callers allocate nothing —
// on every path, the fallbacks included; their contents on entry do not
// matter. The partition pivot is chosen by median-of-three on values,
// which keeps the expected linear bound on the already-sorted and
// reverse-sorted inputs simulators tend to produce. Two inputs leave the
// quickselect: a zero total weight returns Median(xs), and a numerical
// tie no window candidate passes rescans xs and ws in their original
// order with WeightedMedian's scan (which is why the inputs are copied
// rather than permuted in place); both reuse vbuf and return exactly
// what Median and WeightedMedian return. Elsewhere the quickselect's
// partial sums can round differently from WeightedMedian's sorted
// prefix sums, so on inputs with tied weight sums the two may return
// different candidates, or zeros of different sign. xs and ws are not
// modified.
func WeightedMedianBuf(xs, ws, vbuf, wbuf []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMedianBuf length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	vals := vbuf[:n]
	wts := wbuf[:n]
	var total float64
	for i := range xs {
		w := nonNegative(ws[i])
		vals[i] = xs[i]
		wts[i] = w
		total += w
	}
	if total == 0 {
		return medianBuf(xs, vals)
	}
	half := total / 2
	// Invariant: the weighted median of the original input lies in
	// vals[lo:hi]; below/above hold the weight outside that window.
	lo, hi := 0, n
	var below, above float64
	for {
		if hi-lo == 1 {
			return vals[lo]
		}
		if hi-lo <= 3 {
			// Small windows: resolve by direct scan of the remaining
			// candidates using the Eq(16) condition.
			best := vals[lo]
			found := false
			for i := lo; i < hi; i++ {
				v := vals[i]
				b, a := below, above
				for j := lo; j < hi; j++ {
					if vals[j] < v {
						b += wts[j]
					} else if vals[j] > v {
						a += wts[j]
					}
				}
				if b < half && a <= half {
					best = v
					found = true
					break
				}
			}
			if !found {
				// Numerical ties: fall back to the reference scan.
				return weightedMedianScan(xs, ws, vals, total)
			}
			return best
		}

		pivot := medianOfThree(vals[lo], vals[(lo+hi)/2], vals[hi-1])
		// Three-way partition of the window around the pivot value.
		lt, gt := lo, hi
		i := lo
		var wLess, wEq, wMore float64
		for i < gt {
			switch {
			case vals[i] < pivot:
				vals[i], vals[lt] = vals[lt], vals[i]
				wts[i], wts[lt] = wts[lt], wts[i]
				wLess += wts[lt]
				lt++
				i++
			case vals[i] > pivot:
				gt--
				vals[i], vals[gt] = vals[gt], vals[i]
				wts[i], wts[gt] = wts[gt], wts[i]
				wMore += wts[gt]
			default:
				wEq += wts[i]
				i++
			}
		}
		// Decide which side holds the weighted median.
		if below+wLess < half && above+wMore <= half {
			return pivot
		}
		if below+wLess >= half {
			// Median among the smaller values.
			hi = lt
			above += wEq + wMore
		} else {
			// Median among the larger values.
			lo = gt
			below += wLess + wEq
		}
	}
}

func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
