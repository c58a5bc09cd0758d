package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// planted builds a dataset with known truths: nGood reliable sources that
// almost always report the truth and nBad unreliable ones that usually
// don't, over nObj objects with one continuous and one categorical
// property. Returns the dataset and the planted truth table.
func planted(t *testing.T, seed int64, nGood, nBad, nObj int) (*data.Dataset, *data.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := data.NewBuilder()
	tempP := b.MustProperty("temp", data.Continuous)
	condP := b.MustProperty("cond", data.Categorical)
	conds := []string{"sunny", "rain", "snow", "cloudy"}
	condIDs := make([]int, len(conds))
	for i, c := range conds {
		condIDs[i] = b.CatValue(condP, c)
	}
	type truthRow struct {
		temp float64
		cond int
	}
	truths := make([]truthRow, nObj)
	var srcNames []string
	for k := 0; k < nGood; k++ {
		srcNames = append(srcNames, "good"+string(rune('A'+k)))
	}
	for k := 0; k < nBad; k++ {
		srcNames = append(srcNames, "bad"+string(rune('A'+k)))
	}
	for i := 0; i < nObj; i++ {
		obj := b.Object("obj" + string(rune('0'+i%10)) + string(rune('a'+(i/10)%26)) + string(rune('a'+i/260)))
		truths[i] = truthRow{temp: 50 + rng.Float64()*40, cond: condIDs[rng.Intn(len(conds))]}
		for k, name := range srcNames {
			src := b.Source(name)
			good := k < nGood
			temp := truths[i].temp
			cond := truths[i].cond
			if good {
				temp += rng.NormFloat64() * 0.5
			} else {
				temp += rng.NormFloat64() * 15
			}
			flip := 0.05
			if !good {
				flip = 0.7
			}
			if rng.Float64() < flip {
				cond = condIDs[rng.Intn(len(conds))]
			}
			b.ObserveIdx(src, obj, tempP, data.Float(temp))
			b.ObserveIdx(src, obj, condP, data.Cat(cond))
		}
	}
	d := b.Build()
	gt := data.NewTableFor(d)
	for i := 0; i < nObj; i++ {
		gt.SetAt(i, tempP, data.Float(truths[i].temp))
		gt.SetAt(i, condP, data.Cat(truths[i].cond))
	}
	return d, gt
}

func TestRunEmptyDataset(t *testing.T) {
	b := data.NewBuilder()
	if _, err := Run(b.Build(), Config{}); err != ErrEmptyDataset {
		t.Fatalf("err = %v, want ErrEmptyDataset", err)
	}
}

func TestRunRecoversPlantedTruths(t *testing.T) {
	d, gt := planted(t, 1, 3, 5, 120)
	res, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truths.Count() != d.NumEntries() {
		t.Fatalf("truths cover %d of %d entries", res.Truths.Count(), d.NumEntries())
	}
	// Good sources must outweigh bad ones.
	var minGood, maxBad float64 = math.Inf(1), math.Inf(-1)
	for k := 0; k < d.NumSources(); k++ {
		if k < 3 {
			if res.Weights[k] < minGood {
				minGood = res.Weights[k]
			}
		} else if res.Weights[k] > maxBad {
			maxBad = res.Weights[k]
		}
	}
	if !(minGood > maxBad) {
		t.Fatalf("good-source weights %v do not dominate bad ones", res.Weights)
	}
	// Categorical accuracy: despite a 3-vs-5 minority of good sources,
	// CRH should recover nearly all conditions.
	var wrong, n int
	var absErr float64
	gt.ForEach(func(e int, want data.Value) {
		got, ok := res.Truths.Get(e)
		if !ok {
			t.Fatalf("entry %d missing from truths", e)
		}
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			n++
			if got.C != want.C {
				wrong++
			}
		} else {
			absErr += math.Abs(got.F - want.F)
		}
	})
	if rate := float64(wrong) / float64(n); rate > 0.05 {
		t.Fatalf("categorical error rate = %v, want <= 0.05", rate)
	}
	if avg := absErr / 120; avg > 1.0 {
		t.Fatalf("mean absolute temp error = %v, want <= 1.0", avg)
	}
	if res.Iterations == 0 || len(res.Objective) != res.Iterations {
		t.Fatalf("iterations=%d objectives=%d", res.Iterations, len(res.Objective))
	}
}

func TestCRHBeatsUnweightedBaselines(t *testing.T) {
	d, gt := planted(t, 2, 2, 6, 150)
	res, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Unweighted vote / median = one truth pass with uniform weights.
	uniform, err := Run(d, Config{MaxIters: 1, Scheme: uniformScheme{}})
	if err != nil {
		t.Fatal(err)
	}
	count := func(tb *data.Table) (wrong int) {
		gt.ForEach(func(e int, want data.Value) {
			if d.Prop(d.EntryProp(e)).Type != data.Categorical {
				return
			}
			got, _ := tb.Get(e)
			if got.C != want.C {
				wrong++
			}
		})
		return
	}
	if crh, base := count(res.Truths), count(uniform.Truths); crh >= base {
		t.Fatalf("CRH errors %d should be < voting errors %d", crh, base)
	}
}

// uniformScheme always writes unit weights — the Voting/Averaging regime.
type uniformScheme struct{}

func (uniformScheme) Name() string { return "uniform" }
func (uniformScheme) Weights(dst, _ []float64, _ []int) {
	for i := range dst {
		dst[i] = 1
	}
}

// TestObjectiveNonIncreasing checks the block-coordinate-descent guarantee
// for the convex configuration the paper proves convergence for: ExpSum
// regularization (Eq 4) with squared losses (Eq 11, Eq 13), no per-property
// renormalization between steps.
func TestObjectiveNonIncreasing(t *testing.T) {
	d, _ := planted(t, 3, 2, 3, 60)
	res, err := Run(d, Config{
		ContinuousLoss:           loss.NormalizedSquared{},
		CategoricalLoss:          loss.SquaredProb{},
		Scheme:                   reg.ExpSum{},
		DisablePropNormalization: true,
		MaxIters:                 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Objective); i++ {
		if res.Objective[i] > res.Objective[i-1]+1e-9 {
			t.Fatalf("objective increased at iter %d: %v -> %v (series %v)",
				i, res.Objective[i-1], res.Objective[i], res.Objective)
		}
	}
	if !res.Converged {
		t.Fatal("expected convergence within 15 iterations")
	}
}

func TestConvergenceIsFast(t *testing.T) {
	d, _ := planted(t, 4, 3, 5, 100)
	res, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("CRH did not converge in default MaxIters")
	}
	if res.Iterations > 10 {
		t.Fatalf("took %d iterations; the paper observes convergence within a few", res.Iterations)
	}
}

func TestMissingValues(t *testing.T) {
	// Source "sparse" observes only one object but perfectly; source
	// "dense" observes everything with noise; source "junk" observes
	// everything and is wrong. Count normalization should keep sparse's
	// weight meaningful.
	b := data.NewBuilder()
	p := b.MustProperty("x", data.Continuous)
	for i := 0; i < 30; i++ {
		obj := b.Object(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		truth := float64(i)
		b.ObserveIdx(b.Source("dense"), obj, p, data.Float(truth+0.1))
		b.ObserveIdx(b.Source("junk"), obj, p, data.Float(truth+25))
		if i == 0 {
			b.ObserveIdx(b.Source("sparse"), obj, p, data.Float(truth))
		}
	}
	d := b.Build()
	res, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dense, junk := res.Weights[0], res.Weights[1]
	if !(dense > junk) {
		t.Fatalf("dense weight %v should exceed junk weight %v", dense, junk)
	}
	// Every observed entry has a truth; truths stay near dense's values.
	v, ok := res.Truths.GetAt(5, 0)
	if !ok {
		t.Fatal("entry missing")
	}
	if math.Abs(v.F-5.1) > 1.0 {
		t.Fatalf("truth = %v, want near 5.1", v.F)
	}
}

func TestUnobservedEntriesStayUnset(t *testing.T) {
	b := data.NewBuilder()
	p := b.MustProperty("x", data.Continuous)
	b.ObserveIdx(b.Source("s"), b.Object("o1"), p, data.Float(1))
	b.Object("o2") // never observed
	d := b.Build()
	res, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Truths.GetAt(1, 0); ok {
		t.Fatal("unobserved entry should have no truth")
	}
	if _, ok := res.Truths.GetAt(0, 0); !ok {
		t.Fatal("observed entry should have a truth")
	}
}

func TestSingleSource(t *testing.T) {
	b := data.NewBuilder()
	p := b.MustProperty("x", data.Continuous)
	c := b.MustProperty("c", data.Categorical)
	v := b.CatValue(c, "only")
	b.ObserveIdx(b.Source("s"), b.Object("o"), p, data.Float(42))
	b.ObserveIdx(b.Source("s"), b.Object("o"), c, data.Cat(v))
	res, err := Run(b.Build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Truths.GetAt(0, 0)
	if got.F != 42 {
		t.Fatalf("single-source truth = %v, want 42", got.F)
	}
	gotC, _ := res.Truths.GetAt(0, 1)
	if int(gotC.C) != v {
		t.Fatal("single-source categorical truth wrong")
	}
	for _, w := range res.Weights {
		if math.IsInf(w, 0) || math.IsNaN(w) || w < 0 {
			t.Fatalf("weight = %v", w)
		}
	}
}

func TestAllSourcesAgree(t *testing.T) {
	b := data.NewBuilder()
	p := b.MustProperty("x", data.Continuous)
	for _, s := range []string{"a", "b", "c"} {
		b.ObserveIdx(b.Source(s), b.Object("o"), p, data.Float(7))
	}
	res, err := Run(b.Build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Truths.GetAt(0, 0)
	if got.F != 7 {
		t.Fatalf("unanimous truth = %v, want 7", got.F)
	}
	for _, w := range res.Weights {
		if w != res.Weights[0] {
			t.Fatalf("agreeing sources should have equal weights: %v", res.Weights)
		}
	}
}

func TestSquaredProbConfiguration(t *testing.T) {
	d, gt := planted(t, 7, 3, 4, 100)
	res, err := Run(d, Config{CategoricalLoss: loss.SquaredProb{}})
	if err != nil {
		t.Fatal(err)
	}
	var wrong, n int
	gt.ForEach(func(e int, want data.Value) {
		if d.Prop(d.EntryProp(e)).Type != data.Categorical {
			return
		}
		n++
		got, _ := res.Truths.Get(e)
		if got.C != want.C {
			wrong++
		}
	})
	if rate := float64(wrong) / float64(n); rate > 0.08 {
		t.Fatalf("squared-prob error rate = %v", rate)
	}
}

func TestWeightedMeanConfiguration(t *testing.T) {
	d, gt := planted(t, 8, 3, 4, 100)
	res, err := Run(d, Config{ContinuousLoss: loss.NormalizedSquared{}})
	if err != nil {
		t.Fatal(err)
	}
	var absErr float64
	var n int
	gt.ForEach(func(e int, want data.Value) {
		if d.Prop(d.EntryProp(e)).Type != data.Continuous {
			return
		}
		n++
		got, _ := res.Truths.Get(e)
		absErr += math.Abs(got.F - want.F)
	})
	if avg := absErr / float64(n); avg > 2 {
		t.Fatalf("weighted-mean avg error = %v", avg)
	}
}

func TestTopJSchemeIntegration(t *testing.T) {
	d, _ := planted(t, 9, 2, 4, 60)
	res, err := Run(d, Config{Scheme: reg.TopJ{J: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var selected int
	for _, w := range res.Weights {
		if w == 1 {
			selected++
		} else if w != 0 {
			t.Fatalf("TopJ weight = %v, want 0 or 1", w)
		}
	}
	if selected != 2 {
		t.Fatalf("TopJ selected %d sources, want 2", selected)
	}
	// The two good sources should be the ones selected.
	if res.Weights[0] != 1 || res.Weights[1] != 1 {
		t.Fatalf("TopJ selected wrong sources: %v", res.Weights)
	}
}

func TestBestSourceSchemeIntegration(t *testing.T) {
	d, _ := planted(t, 10, 1, 5, 60)
	res, err := Run(d, Config{Scheme: reg.BestSource{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] != 1 {
		t.Fatalf("best source should be the good one: %v", res.Weights)
	}
}

func TestDeterminism(t *testing.T) {
	d, _ := planted(t, 11, 3, 3, 50)
	r1, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range r1.Weights {
		if r1.Weights[k] != r2.Weights[k] {
			t.Fatal("weights differ across runs")
		}
	}
	for e := 0; e < r1.Truths.Len(); e++ {
		v1, ok1 := r1.Truths.Get(e)
		v2, ok2 := r2.Truths.Get(e)
		if ok1 != ok2 || v1 != v2 {
			t.Fatal("truths differ across runs")
		}
	}
}
