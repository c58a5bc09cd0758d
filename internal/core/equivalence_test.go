package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// The determinism-equivalence suite: for a grid of synthetic datasets and
// solver configurations, Run with any worker budget must produce output
// bit-for-bit identical to the sequential run — truth tables, weights,
// confidence, and the full objective trajectory, compared by exact float
// bits, never ApproxEq. This is the contract docs/PARALLEL.md states and
// the shard-order reduction exists to uphold.

// equivGrid is the synthetic dataset grid: continuous-only,
// categorical-only, mixed, missing-heavy, tiny (fewer entries than one
// shard), and large enough to hit the maxShards cap.
type equivCase struct {
	name    string
	nCont   int     // continuous properties
	nCat    int     // categorical properties
	sources int     //
	objects int     //
	missing float64 // probability an observation is dropped
}

var equivGrid = []equivCase{
	{"continuous", 3, 0, 10, 300, 0.2},
	{"categorical", 0, 3, 8, 300, 0.2},
	{"mixed", 2, 2, 12, 250, 0.3},
	{"missing-heavy", 2, 2, 9, 400, 0.85},
	{"tiny", 1, 1, 2, 3, 0},
	{"sharded-max", 1, 1, 6, 9000, 0.5},
}

// synthesize builds one grid dataset: a planted truth per entry, sources
// of graduated reliability, and a deterministic seeded corruption model.
// Every categorical property has five categories.
func synthesize(c equivCase, seed int64) *data.Dataset {
	return synthesizeCats(c, seed, nil)
}

// synthesizeCats is synthesize with catSizes[i] categories on
// categorical property i; nil gives every one five.
func synthesizeCats(c equivCase, seed int64, catSizes []int) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	b := data.NewBuilder()
	var props []int
	var kinds []data.Type
	// ncats[pi] is property pi's category count; a continuous property
	// still draws (and ignores) a category, keeping the seeded stream.
	var ncats []int
	for i := 0; i < c.nCont; i++ {
		props = append(props, b.MustProperty(fmt.Sprintf("f%d", i), data.Continuous))
		kinds = append(kinds, data.Continuous)
		ncats = append(ncats, 5)
	}
	for i := 0; i < c.nCat; i++ {
		p := b.MustProperty(fmt.Sprintf("c%d", i), data.Categorical)
		n := 5
		if catSizes != nil {
			n = catSizes[i]
		}
		for j := 0; j < n; j++ {
			b.CatValue(p, string(rune('a'+j)))
		}
		props = append(props, p)
		kinds = append(kinds, data.Categorical)
		ncats = append(ncats, n)
	}
	for o := 0; o < c.objects; o++ {
		obj := b.Object(fmt.Sprintf("obj%06d", o))
		for pi, p := range props {
			truthF := rng.Float64() * 100
			truthC := rng.Intn(ncats[pi])
			for k := 0; k < c.sources; k++ {
				if rng.Float64() < c.missing {
					continue
				}
				src := b.Source(fmt.Sprintf("src%03d", k))
				noise := 0.2 + 3*float64(k)/float64(c.sources)
				if kinds[pi] == data.Continuous {
					b.ObserveIdx(src, obj, p, data.Float(truthF+rng.NormFloat64()*noise))
				} else {
					v := truthC
					if rng.Float64() < 0.1*noise {
						v = rng.Intn(ncats[pi])
					}
					b.ObserveIdx(src, obj, p, data.Cat(v))
				}
			}
		}
	}
	return b.Build()
}

// equivConfigs returns the solver configurations the grid runs under.
// KnownTruths and PropertyGroups variants are added per-dataset where
// they apply.
func equivConfigs() map[string]Config {
	return map[string]Config{
		"default": {},
		"squared-prob-expsum": {
			ContinuousLoss:  loss.NormalizedSquared{},
			CategoricalLoss: loss.SquaredProb{},
			Scheme:          reg.ExpSum{},
		},
		"catd-confidence": {
			Scheme:            reg.CATD{},
			ComputeConfidence: true,
		},
	}
}

// bitsEq compares floats by representation: the equivalence contract is
// exact, so even a one-ulp summation difference must fail.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireBitIdentical fails unless the two results are indistinguishable
// bit for bit.
func requireBitIdentical(t *testing.T, d *data.Dataset, ref, got *Result, label string) {
	t.Helper()
	if ref.Iterations != got.Iterations || ref.Converged != got.Converged {
		t.Fatalf("%s: iterations/converged differ: (%d,%t) vs (%d,%t)",
			label, ref.Iterations, ref.Converged, got.Iterations, got.Converged)
	}
	if len(ref.Objective) != len(got.Objective) {
		t.Fatalf("%s: objective trajectory lengths differ: %d vs %d", label, len(ref.Objective), len(got.Objective))
	}
	for i := range ref.Objective {
		if !bitsEq(ref.Objective[i], got.Objective[i]) {
			t.Fatalf("%s: objective[%d] differs: %x vs %x (%v vs %v)", label, i,
				math.Float64bits(ref.Objective[i]), math.Float64bits(got.Objective[i]),
				ref.Objective[i], got.Objective[i])
		}
	}
	for k := range ref.Weights {
		if !bitsEq(ref.Weights[k], got.Weights[k]) {
			t.Fatalf("%s: weight[%d] differs: %v vs %v", label, k, ref.Weights[k], got.Weights[k])
		}
	}
	if len(ref.GroupWeights) != len(got.GroupWeights) {
		t.Fatalf("%s: group-weight shapes differ", label)
	}
	for g := range ref.GroupWeights {
		for k := range ref.GroupWeights[g] {
			if !bitsEq(ref.GroupWeights[g][k], got.GroupWeights[g][k]) {
				t.Fatalf("%s: group weight [%d][%d] differs", label, g, k)
			}
		}
	}
	for e := 0; e < d.NumEntries(); e++ {
		rv, rok := ref.Truths.Get(e)
		gv, gok := got.Truths.Get(e)
		if rok != gok {
			t.Fatalf("%s: entry %d presence differs", label, e)
		}
		if !rok {
			continue
		}
		if rv.C != gv.C || !bitsEq(rv.F, gv.F) {
			t.Fatalf("%s: entry %d truth differs: %+v vs %+v", label, e, rv, gv)
		}
	}
	if (ref.Confidence == nil) != (got.Confidence == nil) {
		t.Fatalf("%s: confidence presence differs", label)
	}
	for e := range ref.Confidence {
		if !bitsEq(ref.Confidence[e], got.Confidence[e]) {
			t.Fatalf("%s: confidence[%d] differs: %v vs %v", label, e, ref.Confidence[e], got.Confidence[e])
		}
	}
}

// workerGrid returns the worker budgets the suite compares against the
// sequential reference. GOMAXPROCS is pinned explicitly so the grid is
// the same on every machine, whatever the scheduler offers.
func workerGrid() []int {
	return []int{2, 3, 8, runtime.GOMAXPROCS(0)}
}

func TestEquivalenceBitIdenticalAcrossWorkers(t *testing.T) {
	for ci, c := range equivGrid {
		d := synthesize(c, int64(100+ci))
		for cfgName, cfg := range equivConfigs() {
			seqCfg := cfg
			seqCfg.Workers = 1
			ref, err := Run(d, seqCfg)
			if err != nil {
				t.Fatalf("%s/%s: sequential run failed: %v", c.name, cfgName, err)
			}
			for _, w := range workerGrid() {
				parCfg := cfg
				parCfg.Workers = w
				got, err := Run(d, parCfg)
				if err != nil {
					t.Fatalf("%s/%s/workers=%d: %v", c.name, cfgName, w, err)
				}
				requireBitIdentical(t, d, ref, got,
					fmt.Sprintf("%s/%s/workers=%d", c.name, cfgName, w))
			}
		}
	}
}

// TestEquivalencePropertyGroups covers the per-group weight path, whose
// loss matrix is assembled column-by-column from the shared sums.
func TestEquivalencePropertyGroups(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 12, 250, 0.3}, 7)
	cfg := Config{PropertyGroups: [][]int{{0, 2}, {1, 3}}, Workers: 1}
	ref, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerGrid() {
		cfg.Workers = w
		got, err := Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, d, ref, got, fmt.Sprintf("groups/workers=%d", w))
	}
}

// TestEquivalenceKnownTruths covers the semi-supervised path: pinned
// entries skip re-estimation but still feed the loss sums.
func TestEquivalenceKnownTruths(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 9, 200, 0.25}, 11)
	known := data.NewTableFor(d)
	for e := 0; e < d.NumEntries(); e += 17 {
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			known.Set(e, data.Cat(1))
		} else {
			known.Set(e, data.Float(42))
		}
	}
	cfg := Config{KnownTruths: known, Workers: 1}
	ref, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerGrid() {
		cfg.Workers = w
		got, err := Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, d, ref, got, fmt.Sprintf("known/workers=%d", w))
	}
}

// TestEquivalenceSharedPool: routing the same budgets through a shared
// Pool must not change a single bit either.
func TestEquivalenceSharedPool(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 10, 300, 0.3}, 13)
	ref, err := Run(d, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()
	for _, w := range workerGrid() {
		got, err := Run(d, Config{Workers: w, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, d, ref, got, fmt.Sprintf("pool/workers=%d", w))
	}
}

// TestEquivalenceHelpers: Step, the one-sweep helper the streaming
// variant reuses, obeys the same contract.
func TestEquivalenceHelpers(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 8, 300, 0.3}, 17)
	weights := make([]float64, d.NumSources())
	for k := range weights {
		weights[k] = 0.25 + float64(k)*0.5
	}
	p := Prepare(d)
	refT, refL := p.Step(weights, Config{Workers: 1})
	for _, w := range workerGrid() {
		gotT, gotL := p.Step(weights, Config{Workers: w})
		for e := 0; e < d.NumEntries(); e++ {
			rv, rok := refT.Get(e)
			gv, gok := gotT.Get(e)
			if rok != gok || rv.C != gv.C || !bitsEq(rv.F, gv.F) {
				t.Fatalf("workers=%d: Step truth %d differs", w, e)
			}
		}
		for k := range refL {
			if !bitsEq(refL[k], gotL[k]) {
				t.Fatalf("workers=%d: Step loss %d differs: %v vs %v", w, k, refL[k], gotL[k])
			}
		}
	}
}
