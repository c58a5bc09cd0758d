package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// weightedMedianBuf is WeightedMedianBuf with fresh, zeroed scratch.
func weightedMedianBuf(xs, ws []float64) float64 {
	return WeightedMedianBuf(xs, ws, make([]float64, len(xs)), make([]float64, len(xs)))
}

// TestWeightedMedianBufMatchesReference is the central correctness check:
// quickselect must agree with the sort-based reference on every input,
// including ties, zero weights, and sorted/reversed orders.
func TestWeightedMedianBufMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(8)) // heavy ties
			ws[i] = rng.Float64()
			if rng.Intn(6) == 0 {
				ws[i] = 0
			}
		}
		switch trial % 4 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		want := WeightedMedian(xs, ws)
		got := weightedMedianBuf(xs, ws)
		if got != want {
			t.Fatalf("trial %d: quickselect=%v want=%v xs=%v ws=%v", trial, got, want, xs, ws)
		}
	}
}

func TestWeightedMedianBufDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	ws := []float64{1, 2, 3, 4, 5}
	weightedMedianBuf(xs, ws)
	if xs[0] != 5 || ws[0] != 1 || xs[4] != 4 || ws[4] != 5 {
		t.Fatalf("inputs mutated: %v %v", xs, ws)
	}
}

func TestWeightedMedianBufEdgeCases(t *testing.T) {
	if got := weightedMedianBuf(nil, nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := weightedMedianBuf([]float64{7}, []float64{2}); got != 7 {
		t.Fatalf("single = %v", got)
	}
	if got := weightedMedianBuf([]float64{1, 2, 3}, []float64{0, 0, 0}); got != 2 {
		t.Fatalf("all-zero weights = %v", got)
	}
	// All values identical.
	if got := weightedMedianBuf([]float64{4, 4, 4, 4}, []float64{1, 2, 3, 4}); got != 4 {
		t.Fatalf("constant = %v", got)
	}
}

func TestWeightedMedianBufPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	weightedMedianBuf([]float64{1}, []float64{1, 2})
}

// TestWeightedMedianBufQuick re-verifies the Eq(16) property directly.
func TestWeightedMedianBufQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		xs := make([]float64, len(raw))
		ws := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			xs[i] = float64(r % 13)
			ws[i] = float64(r%5) + 0.25
			total += ws[i]
		}
		m := weightedMedianBuf(xs, ws)
		var below, above float64
		for i := range xs {
			if xs[i] < m {
				below += ws[i]
			} else if xs[i] > m {
				above += ws[i]
			}
		}
		return below < total/2+1e-12 && above <= total/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWeightedMedianSort(b *testing.B) {
	xs, ws := benchMedianData(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightedMedian(xs, ws)
	}
}

func benchMedianData(n int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	ws := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ws[i] = rng.Float64()
	}
	return xs, ws
}

// tieDraw returns one duplicate-heavy weighted-median input of length
// 1..maxN: values on a coarse grid (zeros of both signs included) and
// weights drawn by kind — "coarse" quarter steps with some negatives
// (clamped to zero), "thirds" multiples of 1/3 whose sums round (the
// inputs behind exact ties no quickselect window resolves), or "zero"
// all-zero weights (the unweighted-median fallback).
func tieDraw(rng *rand.Rand, maxN int, kind string) (xs, ws []float64) {
	n := 1 + rng.Intn(maxN)
	xs = make([]float64, n)
	ws = make([]float64, n)
	for i := range xs {
		xs[i] = math.Round(rng.NormFloat64() * 3)
		if xs[i] == 0 && rng.Intn(2) == 0 {
			xs[i] = math.Copysign(0, -1)
		}
		switch kind {
		case "coarse":
			ws[i] = math.Round(rng.Float64()*8) / 4
			if rng.Intn(9) == 0 {
				ws[i] = -ws[i] // negative weights are clamped to zero
			}
		case "thirds":
			ws[i] = float64(rng.Intn(4)) / 3
		}
	}
	return xs, ws
}

// TestWeightedMedianBufBitIdentity: whatever its scratch holds,
// WeightedMedianBuf must return exactly the bits it returns with clean
// scratch, and must not modify its inputs — including on the coarse
// duplicate-heavy inputs that trigger the numerical-tie fallback, the
// thirds-weighted draws that defeat every quickselect window, and zero
// total weights. The reference is WeightedMedianBuf itself: the
// sort-based WeightedMedian may pick another tied candidate, or the
// other signed zero, on these draws.
func TestWeightedMedianBufBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []string{"coarse", "thirds", "zero"} {
		for trial := 0; trial < 2000; trial++ {
			xs, ws := tieDraw(rng, 16, kind)
			n := len(xs)
			origX := append([]float64(nil), xs...)
			origW := append([]float64(nil), ws...)
			want := weightedMedianBuf(xs, ws)
			vbuf := make([]float64, n)
			wbuf := make([]float64, n)
			for i := range vbuf {
				vbuf[i], wbuf[i] = math.NaN(), math.NaN() // scratch contents must not matter
			}
			got := WeightedMedianBuf(xs, ws, vbuf, wbuf)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s trial %d: NaN scratch %v, clean scratch %v (xs=%v ws=%v)", kind, trial, got, want, xs, ws)
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(origX[i]) || ws[i] != origW[i] {
					t.Fatalf("%s trial %d: inputs modified", kind, trial)
				}
			}
		}
	}
}

// sortSliceWeightedMedian is the Eq(16) reference over (value, weight)
// pairs sorted with sort.Slice, with Median's copy sorted by
// sort.Float64s. It is the oracle proving that the scratch scan — and
// so WeightedMedianBuf's fallbacks, which run it — pools tied values'
// weights in the same order and returns the same bits.
func sortSliceWeightedMedian(xs, ws []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	type pair struct{ x, w float64 }
	ps := make([]pair, 0, n)
	var total float64
	for i := range xs {
		w := ws[i]
		if w < 0 {
			w = 0
		}
		ps = append(ps, pair{xs[i], w})
		total += w
	}
	if total == 0 {
		tmp := append([]float64(nil), xs...)
		sort.Float64s(tmp)
		if n%2 == 1 {
			return tmp[n/2]
		}
		return (tmp[n/2-1] + tmp[n/2]) / 2
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
	half := total / 2
	var below float64
	for i := 0; i < n; {
		j := i
		var tie float64
		for j < n && ps[j].x == ps[i].x {
			tie += ps[j].w
			j++
		}
		if below < half && total-below-tie <= half {
			return ps[i].x
		}
		below += tie
		i = j
	}
	return ps[n-1].x
}

// TestWeightedMedianMatchesSortSlice pins WeightedMedian, bit for bit,
// to the pair-sorting oracle on tie-heavy draws long enough (up to 48
// values) for pdqsort to partition rather than insertion-sort, so the
// order in which tied values pool their weight is exercised too.
func TestWeightedMedianMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kind := range []string{"coarse", "thirds", "zero"} {
		for trial := 0; trial < 5000; trial++ {
			xs, ws := tieDraw(rng, 48, kind)
			want := sortSliceWeightedMedian(xs, ws)
			if got := WeightedMedian(xs, ws); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s trial %d: WeightedMedian %v, sort.Slice oracle %v (xs=%v ws=%v)", kind, trial, got, want, xs, ws)
			}
		}
	}
}

// TestWeightedMedianBufAllocFree pins the point of the variant: with
// caller scratch the median computation performs zero allocations, on
// the quickselect path and on both fallbacks — a zero total weight (an
// entry only a zero-weight source claims) and the exact-tie input whose
// rounded total no window candidate passes.
func TestWeightedMedianBufAllocFree(t *testing.T) {
	xs, ws := benchMedianData(64)
	for _, in := range []struct {
		name   string
		xs, ws []float64
	}{
		{"quickselect", xs, ws},
		{"zero-total", []float64{5, 1, 3}, []float64{0, 0, 0}},
		{"exact-tie", []float64{2, 0, 0}, []float64{1, 2.0 / 3, 1.0 / 3}},
	} {
		vbuf := make([]float64, len(in.xs))
		wbuf := make([]float64, len(in.xs))
		allocs := testing.AllocsPerRun(100, func() {
			WeightedMedianBuf(in.xs, in.ws, vbuf, wbuf)
		})
		if allocs != 0 {
			t.Errorf("%s: WeightedMedianBuf allocates %.0f objects per call, want 0", in.name, allocs)
		}
	}
}

func BenchmarkWeightedMedianBuf(b *testing.B) {
	xs, ws := benchMedianData(64)
	vbuf := make([]float64, len(xs))
	wbuf := make([]float64, len(xs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightedMedianBuf(xs, ws, vbuf, wbuf)
	}
}
