package loss

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/crhkit/crh/internal/data"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// catProp builds a categorical property with the given dictionary.
func catProp(t *testing.T, cats ...string) *data.Property {
	t.Helper()
	b := data.NewBuilder()
	for _, c := range cats {
		if err := b.ObserveCat("s", "o", "p", c); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build().Prop(0)
}

// contTruth runs l.Truth with fresh scratch.
func contTruth(l Continuous, vals, ws []float64) float64 {
	return l.Truth(vals, ws, make([]float64, len(vals)), make([]float64, len(vals)))
}

// catTruth runs l.Truth over category indices with fresh scratch,
// returning the distribution it filled (nil for hard losses).
func catTruth(l Categorical, obs []int, ws []float64, p *data.Property) (int, []float64) {
	codes := make([]uint32, len(obs))
	for i, c := range obs {
		codes[i] = uint32(c)
	}
	var dist []float64
	if l.NeedsDist() {
		dist = make([]float64, p.NumCats())
	}
	return l.Truth(codes, ws, make([]float64, p.NumCats()), dist, p), dist
}

func TestNormalizedSquared(t *testing.T) {
	l := NormalizedSquared{}
	if l.Name() != "squared" {
		t.Error("name")
	}
	if got := l.Deviation(3, 1, 2); !almostEq(got, 2) { // (3-1)²/2
		t.Errorf("Deviation = %v, want 2", got)
	}
	// Truth is the weighted mean.
	if got := contTruth(l, []float64{0, 10}, []float64{1, 3}); !almostEq(got, 7.5) {
		t.Errorf("Truth = %v, want 7.5", got)
	}
	// Zero std must not produce Inf for nonzero difference.
	if got := l.Deviation(1, 2, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("zero-std Deviation = %v", got)
	}
	if got := l.Deviation(5, 5, 0); got != 0 {
		t.Errorf("agreeing zero-std Deviation = %v, want 0", got)
	}
}

func TestNormalizedAbsolute(t *testing.T) {
	l := NormalizedAbsolute{}
	if got := l.Deviation(3, 1, 2); !almostEq(got, 1) { // |3-1|/2
		t.Errorf("Deviation = %v, want 1", got)
	}
	// Truth is the weighted median: robust to one big outlier.
	if got := contTruth(l, []float64{10, 11, 1000}, []float64{1, 1, 1}); got != 11 {
		t.Errorf("Truth = %v, want 11", got)
	}
	// With overwhelming weight on the outlier, the median moves there.
	if got := contTruth(l, []float64{10, 11, 1000}, []float64{0.1, 0.1, 5}); got != 1000 {
		t.Errorf("Truth = %v, want 1000", got)
	}
}

// TestContinuousTruthMinimizesLoss verifies the argmin property for both
// continuous losses: no observed value can beat the returned truth.
func TestContinuousTruthMinimizesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, l := range []Continuous{NormalizedSquared{}, NormalizedAbsolute{}} {
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(8)
			vals := make([]float64, n)
			ws := make([]float64, n)
			for i := range vals {
				vals[i] = rng.Float64() * 100
				ws[i] = rng.Float64() + 0.01
			}
			truth := contTruth(l, vals, ws)
			cost := func(v float64) float64 {
				var c float64
				for i := range vals {
					c += ws[i] * l.Deviation(v, vals[i], 1)
				}
				return c
			}
			base := cost(truth)
			// For squared loss, the optimum may be off-sample;
			// check against observed values and small perturbations.
			for _, v := range vals {
				if cost(v) < base-1e-6 {
					t.Fatalf("%s: observed value %v beats truth %v (%v < %v)", l.Name(), v, truth, cost(v), base)
				}
			}
			for _, dv := range []float64{-0.5, 0.5} {
				if cost(truth+dv) < base-1e-6 {
					t.Fatalf("%s: perturbed value beats truth", l.Name())
				}
			}
		}
	}
}

func TestZeroOne(t *testing.T) {
	l := ZeroOne{}
	p := catProp(t, "a", "b", "c")
	truth, dist := catTruth(l, []int{0, 1, 1}, []float64{1, 1, 1}, p)
	if truth != 1 || dist != nil {
		t.Fatalf("Truth = %d dist=%v, want 1 nil", truth, dist)
	}
	// Weighted voting can overturn the majority.
	truth, _ = catTruth(l, []int{0, 1, 1}, []float64{5, 1, 1}, p)
	if truth != 0 {
		t.Fatalf("weighted Truth = %d, want 0", truth)
	}
	if l.Deviation(1, nil, 1, p) != 0 || l.Deviation(1, nil, 0, p) != 1 {
		t.Error("0-1 deviations wrong")
	}
	// Deterministic tie-break toward the lower index.
	truth, _ = catTruth(l, []int{2, 0}, []float64{1, 1}, p)
	if truth != 0 {
		t.Fatalf("tie-break Truth = %d, want 0", truth)
	}
}

func TestSquaredProb(t *testing.T) {
	l := SquaredProb{}
	p := catProp(t, "a", "b")
	truth, dist := catTruth(l, []int{0, 0, 1}, []float64{1, 1, 2}, p)
	if truth != 0 && truth != 1 {
		t.Fatalf("Truth = %d", truth)
	}
	if !almostEq(dist[0], 0.5) || !almostEq(dist[1], 0.5) {
		t.Fatalf("dist = %v, want [0.5 0.5]", dist)
	}
	var sum float64
	for _, d := range dist {
		sum += d
	}
	if !almostEq(sum, 1) {
		t.Fatalf("dist sums to %v", sum)
	}
	// Deviation = ‖dist − onehot‖².
	want := (0.5-1)*(0.5-1) + 0.5*0.5
	if got := l.Deviation(truth, dist, 0, p); !almostEq(got, want) {
		t.Fatalf("Deviation = %v, want %v", got, want)
	}
	// A unanimous entry has zero deviation for the agreeing observer.
	_, dist = catTruth(l, []int{1, 1}, []float64{1, 2}, p)
	if got := l.Deviation(1, dist, 1, p); !almostEq(got, 0) {
		t.Fatalf("unanimous Deviation = %v, want 0", got)
	}
	// Zero weights fall back to the unweighted distribution.
	_, dist = catTruth(l, []int{0, 1}, []float64{0, 0}, p)
	if !almostEq(dist[0], 0.5) || !almostEq(dist[1], 0.5) {
		t.Fatalf("zero-weight dist = %v", dist)
	}
	// Nil distribution degrades to 0-1 behaviour: a disagreeing
	// observation costs 1 and an agreeing one nothing.
	if got := l.Deviation(0, nil, 1, p); got != 1 {
		t.Fatalf("nil-dist disagreeing Deviation = %v, want 1", got)
	}
	if got := l.Deviation(1, nil, 1, p); got != 0 {
		t.Fatalf("nil-dist agreeing Deviation = %v, want 0", got)
	}
}

// TestSquaredProbDistQuick property-tests that Truth's distribution is a
// valid probability vector whose mode matches the reported truth.
func TestSquaredProbDistQuick(t *testing.T) {
	p := catProp(t, "a", "b", "c", "d")
	l := SquaredProb{}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		obs := make([]int, len(raw))
		ws := make([]float64, len(raw))
		for i, r := range raw {
			obs[i] = int(r) % 4
			ws[i] = float64(r%5) + 0.25
		}
		truth, dist := catTruth(l, obs, ws, p)
		var sum float64
		for _, d := range dist {
			if d < -1e-12 {
				return false
			}
			sum += d
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for _, d := range dist {
			if d > dist[truth]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"gate B12", "gate B-12", 1},
		{"same", "same", 0},
		{"日本", "日本語", 1}, // rune-aware
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Levenshtein(c.b, c.a); got != c.want {
			t.Errorf("Levenshtein symmetric (%q,%q) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func TestEditDistanceLoss(t *testing.T) {
	l := EditDistance{}
	p := catProp(t, "B12", "B-12", "C7")
	// Two near-identical gate strings and one distant: the medoid should
	// be one of the near pair.
	truth, _ := catTruth(l, []int{0, 1, 2}, []float64{1, 1, 1}, p)
	if name := p.CatName(truth); name != "B12" && name != "B-12" {
		t.Fatalf("medoid = %q, want a member of the near pair", name)
	}
	if got := l.Deviation(0, nil, 0, p); got != 0 {
		t.Fatalf("self deviation = %v", got)
	}
	d1 := l.Deviation(0, nil, 1, p) // B12 vs B-12
	d2 := l.Deviation(0, nil, 2, p) // B12 vs C7
	if !(d1 < d2) {
		t.Fatalf("near-miss %v should cost less than distant %v", d1, d2)
	}
	if truth, _ := catTruth(l, nil, nil, p); truth != -1 {
		t.Fatal("empty Truth should be -1")
	}
	if got := l.Deviation(-1, nil, 0, p); got != 1 {
		t.Fatal("deviation against absent truth should be 1")
	}
}

func TestBregmanSquaredMatchesSquared(t *testing.T) {
	b := SquaredBregman()
	s := NormalizedSquared{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		truth, obs, std := rng.Float64()*10, rng.Float64()*10, rng.Float64()+0.1
		if got, want := b.Deviation(truth, obs, std), s.Deviation(truth, obs, std); !almostEq(got, want) {
			t.Fatalf("Bregman squared %v != squared %v", got, want)
		}
	}
	if got := contTruth(b, []float64{1, 3}, []float64{1, 1}); !almostEq(got, 2) {
		t.Fatalf("Bregman Truth = %v", got)
	}
	if b.Name() != "bregman-squared" {
		t.Error("name")
	}
	if (Bregman{Generator: func(x float64) float64 { return x * x }, Gradient: func(x float64) float64 { return 2 * x }}).Name() != "bregman" {
		t.Error("default name")
	}
}

func TestItakuraSaitoNonNegative(t *testing.T) {
	b := ItakuraSaito()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		truth, obs := rng.Float64()*10+0.1, rng.Float64()*10+0.1
		if d := b.Deviation(truth, obs, 1); d < 0 || math.IsNaN(d) {
			t.Fatalf("IS(%v,%v) = %v", obs, truth, d)
		}
		if d := b.Deviation(truth, truth, 1); !almostEq(d, 0) {
			t.Fatalf("IS self-divergence = %v", d)
		}
	}
}

func TestGeneralizedIDivergence(t *testing.T) {
	b := GeneralizedIDivergence()
	if d := b.Deviation(2, 2, 1); !almostEq(d, 0) {
		t.Fatalf("self-divergence = %v", d)
	}
	if d := b.Deviation(1, 4, 1); d <= 0 {
		t.Fatalf("divergence = %v, want > 0", d)
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := KLDivergence(p, p); !almostEq(got, 0) {
		t.Fatalf("KL(p,p) = %v", got)
	}
	q := []float64{0.9, 0.1}
	if got := KLDivergence(p, q); got <= 0 {
		t.Fatalf("KL(p,q) = %v, want > 0", got)
	}
	if got := KLDivergence([]float64{1, 0}, []float64{0, 1}); !math.IsInf(got, 1) {
		t.Fatalf("KL with zero support = %v, want +Inf", got)
	}
	if got := KLDivergence([]float64{0, 1}, []float64{0.5, 0.5}); math.IsInf(got, 0) {
		t.Fatal("0·log0 should be 0")
	}
}

func TestHuberDeviationShape(t *testing.T) {
	h := Huber{}
	// Continuous at the crossover and quadratic inside it.
	d := 1.345
	inside := h.Deviation(0, 0.5, 1) // r = 0.5 ≤ δ → ½r²
	if !almostEq(inside, 0.125) {
		t.Fatalf("quadratic branch = %v, want 0.125", inside)
	}
	atCross := h.Deviation(0, d, 1)
	wantCross := d * d / 2
	if !almostEq(atCross, wantCross) {
		t.Fatalf("crossover = %v, want %v", atCross, wantCross)
	}
	// Linear growth beyond the crossover: increments of δ per unit r.
	d1 := h.Deviation(0, 3, 1)
	d2 := h.Deviation(0, 4, 1)
	if !almostEq(d2-d1, d) {
		t.Fatalf("linear branch slope = %v, want δ=%v", d2-d1, d)
	}
	// Symmetry and zero.
	if h.Deviation(2, 2, 1) != 0 {
		t.Fatal("self deviation")
	}
	if !almostEq(h.Deviation(0, 2, 1), h.Deviation(2, 0, 1)) {
		t.Fatal("asymmetric")
	}
}

func TestHuberTruthBetweenMedianAndMean(t *testing.T) {
	// With one extreme outlier, the Huber estimate stays near the bulk
	// — far closer to the median than the mean.
	vals := []float64{10, 10.5, 11, 9.5, 10.2, 1000}
	ws := []float64{1, 1, 1, 1, 1, 1}
	huber := contTruth(Huber{}, vals, ws)
	mean := contTruth(NormalizedSquared{}, vals, ws)
	median := contTruth(NormalizedAbsolute{}, vals, ws)
	if !(math.Abs(huber-median) < math.Abs(huber-mean)) {
		t.Fatalf("huber %v should sit near median %v, not mean %v", huber, median, mean)
	}
	if huber < 9 || huber > 13 {
		t.Fatalf("huber estimate %v left the data bulk", huber)
	}
}

// TestHuberTruthIsArgmin property-checks the IRLS result against local
// perturbations of the convex objective.
func TestHuberTruthIsArgmin(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := Huber{}
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(7)
		vals := make([]float64, n)
		ws := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 50
			ws[i] = 0.1 + rng.Float64()
		}
		truth := contTruth(h, vals, ws)
		// The same robust scale Truth used internally.
		std := 1.4826 * madOf(vals)
		if std < 1e-12 {
			std = 1
			if s := stdOf(vals); s > 1e-12 {
				std = s
			}
		}
		cost := func(v float64) float64 {
			var c float64
			for i := range vals {
				c += ws[i] * h.Deviation(v, vals[i], std)
			}
			return c
		}
		base := cost(truth)
		for _, dv := range []float64{-1, -0.05, 0.05, 1} {
			if cost(truth+dv) < base-1e-8 {
				t.Fatalf("trial %d: perturbation %v beats IRLS truth", trial, dv)
			}
		}
	}
}

func madOf(xs []float64) float64 {
	m := medianOf(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return medianOf(devs)
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func stdOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

func TestHuberEdgeCases(t *testing.T) {
	h := Huber{}
	if contTruth(h, nil, nil) != 0 {
		t.Fatal("empty")
	}
	if got := contTruth(h, []float64{7}, []float64{1}); got != 7 {
		t.Fatalf("single value = %v", got)
	}
	// Zero weights fall back gracefully.
	if got := contTruth(h, []float64{1, 5}, []float64{0, 0}); math.IsNaN(got) {
		t.Fatal("zero weights produced NaN")
	}
	if h.Name() != "huber" {
		t.Fatal("name")
	}
}
