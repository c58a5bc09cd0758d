package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWeightedMean(t *testing.T) {
	if got := WeightedMean([]float64{1, 3}, []float64{1, 1}); !almostEq(got, 2) {
		t.Errorf("uniform weighted mean = %v, want 2", got)
	}
	if got := WeightedMean([]float64{1, 3}, []float64{3, 1}); !almostEq(got, 1.5) {
		t.Errorf("weighted mean = %v, want 1.5", got)
	}
	// Zero total weight falls back to the unweighted mean.
	if got := WeightedMean([]float64{2, 4}, []float64{0, 0}); !almostEq(got, 3) {
		t.Errorf("zero-weight mean = %v, want 3", got)
	}
}

func TestWeightedMeanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEq(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated input: %v", in)
	}
}

func TestWeightedMedianBasics(t *testing.T) {
	// Uniform weights reduce to an element of the ordinary median pair.
	if got := WeightedMedian([]float64{1, 2, 3}, []float64{1, 1, 1}); got != 2 {
		t.Errorf("uniform weighted median = %v, want 2", got)
	}
	// A dominant weight pins the median to its element.
	if got := WeightedMedian([]float64{1, 2, 100}, []float64{1, 1, 10}); got != 100 {
		t.Errorf("dominant weighted median = %v, want 100", got)
	}
	// Negative weights are ignored.
	if got := WeightedMedian([]float64{1, 5}, []float64{-3, 1}); got != 5 {
		t.Errorf("negative-weight median = %v, want 5", got)
	}
	// Zero total weight falls back to the ordinary median.
	if got := WeightedMedian([]float64{1, 2, 3}, []float64{0, 0, 0}); got != 2 {
		t.Errorf("zero-weight median = %v, want 2", got)
	}
	// Duplicated values pool their weight.
	if got := WeightedMedian([]float64{1, 1, 9}, []float64{1, 1, 1.5}); got != 1 {
		t.Errorf("tied-value median = %v, want 1", got)
	}
	if got := WeightedMedian(nil, nil); got != 0 {
		t.Errorf("empty weighted median = %v, want 0", got)
	}
}

// TestWeightedMedianInvariant checks the defining property of Eq(16): the
// weight strictly below the result is < half the total, and the weight
// strictly above is ≤ half the total.
func TestWeightedMedianInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		xs := make([]float64, n)
		ws := make([]float64, n)
		var total float64
		for i := range xs {
			xs[i] = float64(rng.Intn(6)) // small domain forces ties
			ws[i] = rng.Float64()
			total += ws[i]
		}
		m := WeightedMedian(xs, ws)
		var below, above float64
		found := false
		for i := range xs {
			switch {
			case xs[i] < m:
				below += ws[i]
			case xs[i] > m:
				above += ws[i]
			default:
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: median %v is not one of the inputs %v", trial, m, xs)
		}
		if !(below < total/2+1e-12) || !(above <= total/2+1e-12) {
			t.Fatalf("trial %d: median %v violates Eq(16): below=%v above=%v total=%v xs=%v ws=%v",
				trial, m, below, above, total, xs, ws)
		}
	}
}

// TestWeightedMedianQuick property-tests that the weighted median minimizes
// the weighted absolute deviation among the observed values.
func TestWeightedMedianQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		xs := make([]float64, len(raw))
		ws := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 10)
			ws[i] = float64(r%7) + 0.5
		}
		m := WeightedMedian(xs, ws)
		cost := func(v float64) float64 {
			var c float64
			for i := range xs {
				c += ws[i] * math.Abs(v-xs[i])
			}
			return c
		}
		cm := cost(m)
		for _, v := range xs {
			if cost(v) < cm-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(xs); !almostEq(got, 2) {
		t.Errorf("Std = %v, want 2", got)
	}
	if got := Std(nil); got != 0 {
		t.Errorf("Std(nil) = %v, want 0", got)
	}
	if got := SampleStd([]float64{5}); got != 0 {
		t.Errorf("SampleStd(single) = %v, want 0", got)
	}
	if got := SampleStd([]float64{1, 3}); !almostEq(got, math.Sqrt(2)) {
		t.Errorf("SampleStd = %v, want sqrt(2)", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Pearson(xs, []float64{2, 4, 6, 8}); !almostEq(got, 1) {
		t.Errorf("perfect positive correlation = %v, want 1", got)
	}
	if got := Pearson(xs, []float64{8, 6, 4, 2}); !almostEq(got, -1) {
		t.Errorf("perfect negative correlation = %v, want -1", got)
	}
	if got := Pearson(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("zero-variance correlation = %v, want 0", got)
	}
	if got := Pearson(xs, []float64{1, 2}); got != 0 {
		t.Errorf("length-mismatch correlation = %v, want 0", got)
	}
}

func TestNormalize01(t *testing.T) {
	xs := []float64{2, 4, 6}
	Normalize01(xs)
	want := []float64{0, 0.5, 1}
	for i := range xs {
		if !almostEq(xs[i], want[i]) {
			t.Fatalf("Normalize01 = %v, want %v", xs, want)
		}
	}
	flat := []float64{3, 3}
	Normalize01(flat)
	if flat[0] != 1 || flat[1] != 1 {
		t.Errorf("constant series normalized to %v, want all 1", flat)
	}
	if out := Normalize01(nil); out != nil {
		t.Errorf("Normalize01(nil) = %v", out)
	}
}

func TestArgMaxArgMin(t *testing.T) {
	if got := ArgMax([]float64{1, 3, 3, 2}); got != 1 {
		t.Errorf("ArgMax tie-break = %d, want 1", got)
	}
	if got := ArgMin([]float64{4, 0, 0, 2}); got != 1 {
		t.Errorf("ArgMin tie-break = %d, want 1", got)
	}
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Error("Arg{Max,Min}(nil) should be -1")
	}
}

func TestMinMaxSumClamp(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
	if min, max = MinMax(nil); min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = %v,%v", min, max)
	}
	if got := Sum([]float64{1, 2, 3.5}); !almostEq(got, 6.5) {
		t.Errorf("Sum = %v", got)
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-2, 0, 3) != 0 || Clamp(1, 0, 3) != 1 {
		t.Error("Clamp misbehaves")
	}
}

// TestWeightedMedianMatchesBruteForce cross-checks against an O(n²)
// reference that evaluates Eq(16) directly over sorted candidates.
func TestWeightedMedianMatchesBruteForce(t *testing.T) {
	ref := func(xs, ws []float64) float64 {
		var total float64
		for _, w := range ws {
			total += w
		}
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
		for _, i := range idx {
			var below, above float64
			for j := range xs {
				if xs[j] < xs[i] {
					below += ws[j]
				} else if xs[j] > xs[i] {
					above += ws[j]
				}
			}
			if below < total/2 && above <= total/2 {
				return xs[i]
			}
		}
		return xs[idx[len(idx)-1]]
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5))
			ws[i] = 0.1 + rng.Float64()
		}
		got, want := WeightedMedian(xs, ws), ref(xs, ws)
		if got != want {
			t.Fatalf("trial %d: WeightedMedian(%v,%v) = %v, want %v", trial, xs, ws, got, want)
		}
	}
}

// mad is MAD with scratch of its own.
func mad(xs []float64) float64 {
	return MAD(xs, make([]float64, len(xs)), make([]float64, len(xs)))
}

func TestMAD(t *testing.T) {
	if got := mad(nil); got != 0 {
		t.Fatalf("MAD(nil) = %v", got)
	}
	// Symmetric data: MAD = 1 for {1,2,3,4,5} (median 3, devs 2,1,0,1,2).
	xs := []float64{5, 1, 4, 2, 3}
	if got := mad(xs); got != 1 {
		t.Fatalf("MAD = %v, want 1", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("MAD modified its input: %v", xs)
	}
	// Robustness: one huge outlier barely moves it.
	clean := mad([]float64{10, 10.5, 11, 9.5, 10.2})
	dirty := mad([]float64{10, 10.5, 11, 9.5, 10.2, 1e6})
	if dirty > clean*3+1 {
		t.Fatalf("MAD not robust: %v vs %v", dirty, clean)
	}
}

func TestSpearman(t *testing.T) {
	// Any monotone transform gives rank correlation 1 — the property
	// Pearson lacks.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 1000, 1e9} // wildly non-linear but monotone
	if got := Spearman(xs, ys); !almostEq(got, 1) {
		t.Fatalf("monotone Spearman = %v, want 1", got)
	}
	if got := Spearman(xs, []float64{5, 4, 3, 2, 1}); !almostEq(got, -1) {
		t.Fatalf("reversed Spearman = %v, want -1", got)
	}
	if got := Spearman(xs, []float64{2, 2, 2, 2, 2}); got != 0 {
		t.Fatalf("constant Spearman = %v, want 0", got)
	}
	if got := Spearman(xs, []float64{1, 2}); got != 0 {
		t.Fatalf("mismatched lengths = %v", got)
	}
	// Ties share average ranks: {1,1,2} vs {3,3,9} still correlates 1.
	if got := Spearman([]float64{1, 1, 2}, []float64{3, 3, 9}); !almostEq(got, 1) {
		t.Fatalf("tied Spearman = %v, want 1", got)
	}
}

func TestRanks(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}
