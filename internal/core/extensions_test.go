package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// splitReliability builds a dataset where the weight-consistency
// assumption fails: source "tempGood" is accurate on the continuous
// property and terrible on the categorical one, while "condGood" is the
// reverse, and "mediocre" is middling on both.
func splitReliability(t *testing.T, seed int64, nObj int) (*data.Dataset, *data.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := data.NewBuilder()
	tempP := b.MustProperty("temp", data.Continuous)
	condP := b.MustProperty("cond", data.Categorical)
	cats := make([]int, 6)
	for i := range cats {
		cats[i] = b.CatValue(condP, string(rune('a'+i)))
	}
	gtTemp := make([]float64, nObj)
	gtCond := make([]int, nObj)
	observe := func(src string, tempStd, flip float64) {
		k := b.Source(src)
		for i := 0; i < nObj; i++ {
			b.ObserveIdx(k, i, tempP, data.Float(gtTemp[i]+rng.NormFloat64()*tempStd))
			c := gtCond[i]
			if rng.Float64() < flip {
				alt := cats[rng.Intn(len(cats)-1)]
				if alt >= c {
					alt++
				}
				c = alt
			}
			b.ObserveIdx(k, i, condP, data.Cat(c))
		}
	}
	for i := 0; i < nObj; i++ {
		b.Object(objName(i))
		gtTemp[i] = rng.Float64() * 100
		gtCond[i] = cats[rng.Intn(len(cats))]
	}
	observe("tempGood", 0.2, 0.75)
	observe("condGood", 18, 0.03)
	observe("mediocre", 6, 0.35)
	observe("mediocre2", 8, 0.40)
	d := b.Build()
	gt := data.NewTableFor(d)
	for i := 0; i < nObj; i++ {
		gt.SetAt(i, tempP, data.Float(gtTemp[i]))
		gt.SetAt(i, condP, data.Cat(gtCond[i]))
	}
	return d, gt
}

func objName(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

func evalBoth(d *data.Dataset, truths, gt *data.Table) (errRate, absErr float64) {
	var wrong, catN, contN int
	gt.ForEach(func(e int, want data.Value) {
		got, ok := truths.Get(e)
		if !ok {
			return
		}
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			catN++
			if got.C != want.C {
				wrong++
			}
		} else {
			contN++
			absErr += math.Abs(got.F - want.F)
		}
	})
	return float64(wrong) / float64(catN), absErr / float64(contN)
}

// TestPropertyGroupsBeatGlobalWeights is the headline for the fine-grained
// extension (Section 2.5, "Source weight consistency"): when sources have
// property-dependent reliability, per-property weights recover truths a
// single global weight cannot.
func TestPropertyGroupsBeatGlobalWeights(t *testing.T) {
	d, gt := splitReliability(t, 1, 400)
	global, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := Run(d, Config{PropertyGroups: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	gErr, gAbs := evalBoth(d, global.Truths, gt)
	pErr, pAbs := evalBoth(d, grouped.Truths, gt)
	if !(pErr <= gErr) {
		t.Errorf("grouped error rate %v should not exceed global %v", pErr, gErr)
	}
	if !(pAbs < gAbs) {
		t.Errorf("grouped temp error %v should beat global %v", pAbs, gAbs)
	}
	// The grouped weights must reflect the split reliability: tempGood
	// tops the temp group, condGood tops the cond group.
	if grouped.GroupWeights == nil || len(grouped.GroupWeights) != 2 {
		t.Fatal("GroupWeights missing")
	}
	tempW, condW := grouped.GroupWeights[0], grouped.GroupWeights[1]
	if !(tempW[0] > tempW[1]) {
		t.Errorf("tempGood should dominate temp group: %v", tempW)
	}
	if !(condW[1] > condW[0]) {
		t.Errorf("condGood should dominate cond group: %v", condW)
	}
}

func TestPropertyGroupsValidation(t *testing.T) {
	d, _ := splitReliability(t, 2, 10)
	cases := [][][]int{
		{{0}},         // property 1 missing
		{{0, 1}, {1}}, // property 1 duplicated
		{{0, 5}},      // out of range
		{{}, {0, 1}},  // empty group
	}
	for i, groups := range cases {
		if _, err := Run(d, Config{PropertyGroups: groups}); err == nil {
			t.Errorf("case %d: expected validation error for %v", i, groups)
		}
	}
	// A valid single group behaves like the default.
	one, err := Run(d, Config{PropertyGroups: [][]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range def.Weights {
		if math.Abs(one.Weights[k]-def.Weights[k]) > 1e-12 {
			t.Fatal("single explicit group should equal the default")
		}
	}
}

// TestKnownTruthsPinning verifies semi-supervised operation: pinned
// entries are returned verbatim and sharpen the weight estimates.
func TestKnownTruthsPinning(t *testing.T) {
	d, gt := splitReliability(t, 3, 300)
	// Pin the first 30 objects' categorical truths.
	known := data.NewTableFor(d)
	pinned := 0
	gt.ForEach(func(e int, v data.Value) {
		if d.Prop(d.EntryProp(e)).Type == data.Categorical && d.EntryObject(e) < 30 {
			known.Set(e, v)
			pinned++
		}
	})
	if pinned != 30 {
		t.Fatalf("pinned %d", pinned)
	}
	res, err := Run(d, Config{KnownTruths: known})
	if err != nil {
		t.Fatal(err)
	}
	// Every pinned entry must come back exactly.
	known.ForEach(func(e int, want data.Value) {
		got, ok := res.Truths.Get(e)
		if !ok || got != want {
			t.Fatalf("pinned entry %d not honoured: got %v want %v", e, got, want)
		}
	})
	// Supervision should not hurt accuracy on the unpinned entries.
	unsup, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	countWrong := func(tb *data.Table) int {
		var wrong int
		gt.ForEach(func(e int, want data.Value) {
			if d.Prop(d.EntryProp(e)).Type != data.Categorical || d.EntryObject(e) < 30 {
				return
			}
			got, _ := tb.Get(e)
			if got.C != want.C {
				wrong++
			}
		})
		return wrong
	}
	if w1, w0 := countWrong(res.Truths), countWrong(unsup.Truths); w1 > w0 {
		t.Errorf("supervision increased unpinned errors: %d > %d", w1, w0)
	}
}

// TestSquaredProbPinnedTruths: a pinned truth is a hard label with no
// distribution, so the probabilistic loss must charge its claims as the
// 0-1 loss would — agreeing claims nothing. Charging every claim 1 made
// all sources equally bad and erased every weight.
func TestSquaredProbPinnedTruths(t *testing.T) {
	b := data.NewBuilder()
	p := b.MustProperty("c", data.Categorical)
	x, y := b.CatValue(p, "x"), b.CatValue(p, "y")
	agree, disagree, third := b.Source("agree"), b.Source("disagree"), b.Source("third")
	for i := 0; i < 20; i++ {
		o := b.Object(objName(i))
		b.ObserveIdx(agree, o, p, data.Cat(x))
		b.ObserveIdx(disagree, o, p, data.Cat(y))
		b.ObserveIdx(third, o, p, data.Cat(x))
	}
	d := b.Build()
	known := data.NewTableFor(d)
	for i := 0; i < 20; i++ {
		known.SetAt(i, p, data.Cat(x))
	}
	hard, err := Run(d, Config{KnownTruths: known})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := Run(d, Config{KnownTruths: known, CategoricalLoss: loss.SquaredProb{}})
	if err != nil {
		t.Fatal(err)
	}
	if !(soft.Weights[agree] > 0 && soft.Weights[third] > 0 && soft.Weights[disagree] == 0) {
		t.Fatalf("squared-prob weights on pinned truths = %v, want agreeing sources above the disagreeing one's 0", soft.Weights)
	}
	for k := range hard.Weights {
		if math.Float64bits(soft.Weights[k]) != math.Float64bits(hard.Weights[k]) {
			t.Fatalf("squared-prob weights %v differ from 0-1 weights %v on fully pinned truths", soft.Weights, hard.Weights)
		}
	}
}

// TestEnsembleLoss checks the loss-ensemble extension end to end.
func TestEnsembleLoss(t *testing.T) {
	d, gt := splitReliability(t, 5, 200)
	ens := loss.EnsembleContinuous{Members: []loss.Continuous{
		loss.NormalizedAbsolute{}, loss.NormalizedSquared{},
	}}
	if ens.Name() != "ensemble(absolute+squared)" {
		t.Fatalf("name = %s", ens.Name())
	}
	res, err := Run(d, Config{ContinuousLoss: ens})
	if err != nil {
		t.Fatal(err)
	}
	_, absErr := evalBoth(d, res.Truths, gt)
	// The ensemble truth lies between median and mean; it must stay in
	// the same accuracy ballpark as its members.
	resAbs, err := Run(d, Config{ContinuousLoss: loss.NormalizedAbsolute{}})
	if err != nil {
		t.Fatal(err)
	}
	_, absErrMedian := evalBoth(d, resAbs.Truths, gt)
	if absErr > absErrMedian*2+1 {
		t.Fatalf("ensemble error %v far above member error %v", absErr, absErrMedian)
	}
}

// contDev scores one observation: l.Deviations over a one-claim entry.
func contDev(l loss.Continuous, truth, obs, std float64) float64 {
	var dst [1]float64
	l.Deviations(dst[:], []float64{obs}, truth, std)
	return dst[0]
}

func TestEnsembleMemberWeights(t *testing.T) {
	abs := loss.NormalizedAbsolute{}
	sq := loss.NormalizedSquared{}
	// Full weight on one member reduces to that member.
	e := loss.EnsembleContinuous{Members: []loss.Continuous{abs, sq}, MemberWeights: []float64{1, 0}}
	vals := []float64{1, 2, 100}
	ws := []float64{1, 1, 1}
	vbuf, wbuf := make([]float64, len(vals)), make([]float64, len(vals))
	if got, want := e.Truth(vals, ws, vbuf, wbuf), abs.Truth(vals, ws, vbuf, wbuf); got != want {
		t.Fatalf("degenerate ensemble truth %v, want %v", got, want)
	}
	if got, want := contDev(e, 3, 7, 2), contDev(abs, 3, 7, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("degenerate ensemble deviation %v, want %v", got, want)
	}
	// Uniform ensemble deviation is the average of member deviations.
	u := loss.EnsembleContinuous{Members: []loss.Continuous{abs, sq}}
	want := (contDev(abs, 3, 7, 2) + contDev(sq, 3, 7, 2)) / 2
	if got := contDev(u, 3, 7, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("uniform ensemble deviation %v, want %v", got, want)
	}
}

// longTail builds a dataset with a long-tail source: "lucky" observes
// only 4 entries (all correct by luck), "good" covers everything with
// small noise, and two bad sources cover everything with heavy noise.
// Under ExpMax the zero-loss lucky source dominates; CATD discounts it.
func longTail(t *testing.T, seed int64, nObj int) (*data.Dataset, *data.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := data.NewBuilder()
	p := b.MustProperty("x", data.Continuous)
	gt := make([]float64, nObj)
	for i := 0; i < nObj; i++ {
		b.Object(objName(i))
		gt[i] = rng.Float64() * 100
	}
	lucky := b.Source("lucky")
	good := b.Source("good")
	bad1 := b.Source("bad1")
	bad2 := b.Source("bad2")
	for i := 0; i < nObj; i++ {
		if i < 4 {
			b.ObserveIdx(lucky, i, p, data.Float(gt[i]))
		}
		b.ObserveIdx(good, i, p, data.Float(gt[i]+rng.NormFloat64()*0.5))
		b.ObserveIdx(bad1, i, p, data.Float(gt[i]+rng.NormFloat64()*15))
		b.ObserveIdx(bad2, i, p, data.Float(gt[i]+25*rng.NormFloat64()))
	}
	d := b.Build()
	tb := data.NewTableFor(d)
	for i := 0; i < nObj; i++ {
		tb.SetAt(i, 0, data.Float(gt[i]))
	}
	return d, tb
}

// TestCATDIntegration runs the confidence-aware scheme through the full
// solver on long-tail data and checks it corrects ExpMax's over-trust.
func TestCATDIntegration(t *testing.T) {
	d, _ := longTail(t, 7, 300)
	catd, err := Run(d, Config{Scheme: reg.CATD{}})
	if err != nil {
		t.Fatal(err)
	}
	// lucky=0, good=1: CATD must rank the dense good source first.
	if !(catd.Weights[1] > catd.Weights[0]) {
		t.Fatalf("CATD weights: good %v should outrank lucky %v", catd.Weights[1], catd.Weights[0])
	}
	if !(catd.Weights[1] > catd.Weights[2] && catd.Weights[1] > catd.Weights[3]) {
		t.Fatalf("CATD weights: good should outrank bad sources: %v", catd.Weights)
	}
	for _, w := range catd.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			t.Fatalf("bad weight %v", w)
		}
	}
	// ExpMax on the same data over-trusts the lucky source (the failure
	// mode CATD exists for).
	em, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !(em.Weights[0] >= em.Weights[1]) {
		t.Skipf("ExpMax did not over-trust the lucky source on this seed: %v", em.Weights)
	}
}

// TestParallelismEquivalence: the multi-worker solver must produce the
// same truths as the sequential one. (The engine's actual guarantee is
// stronger — bit-for-bit identity, enforced by equivalence_test.go —
// this older test survives as an independent tolerance-level check.)
func TestParallelismEquivalence(t *testing.T) {
	d, _ := splitReliability(t, 9, 500)
	seq, err := Run(d, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7, 16} {
		par, err := Run(d, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < d.NumEntries(); e++ {
			sv, sok := seq.Truths.Get(e)
			pv, pok := par.Truths.Get(e)
			if sok != pok {
				t.Fatalf("workers=%d entry %d presence differs", workers, e)
			}
			if !sok {
				continue
			}
			if d.Prop(d.EntryProp(e)).Type == data.Categorical {
				if sv.C != pv.C {
					t.Fatalf("workers=%d entry %d categorical differs", workers, e)
				}
			} else if math.Abs(sv.F-pv.F) > 1e-9 {
				t.Fatalf("workers=%d entry %d continuous differs: %v vs %v", workers, e, sv.F, pv.F)
			}
		}
		for k := range seq.Weights {
			if math.Abs(seq.Weights[k]-par.Weights[k]) > 1e-9 {
				t.Fatalf("workers=%d weight %d differs: %v vs %v", workers, k, seq.Weights[k], par.Weights[k])
			}
		}
	}
}

// TestParallelismDeterminism: a fixed worker budget must be bit-for-bit
// reproducible run to run.
func TestParallelismDeterminism(t *testing.T) {
	d, _ := splitReliability(t, 10, 300)
	r1, err := Run(d, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(d, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < d.NumEntries(); e++ {
		v1, ok1 := r1.Truths.Get(e)
		v2, ok2 := r2.Truths.Get(e)
		if ok1 != ok2 || v1 != v2 {
			t.Fatalf("entry %d differs across identical parallel runs", e)
		}
	}
	for k := range r1.Weights {
		if r1.Weights[k] != r2.Weights[k] {
			t.Fatal("weights differ across identical parallel runs")
		}
	}
}

// TestParallelismMoreWorkersThanEntries survives the degenerate split.
func TestParallelismMoreWorkersThanEntries(t *testing.T) {
	b := data.NewBuilder()
	p := b.MustProperty("x", data.Continuous)
	b.ObserveIdx(b.Source("s1"), b.Object("o1"), p, data.Float(1))
	b.ObserveIdx(b.Source("s2"), b.Object("o1"), p, data.Float(3))
	res, err := Run(b.Build(), Config{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truths.Count() != 1 {
		t.Fatal("truth missing")
	}
}

func TestConfidenceScores(t *testing.T) {
	b := data.NewBuilder()
	cp := b.MustProperty("c", data.Categorical)
	x := b.CatValue(cp, "x")
	y := b.CatValue(cp, "y")
	np := b.MustProperty("n", data.Continuous)
	// Object 0: s1-s3 unanimous, s4 (the designated worst source, so
	// the dissenter s3 keeps nonzero weight under exp-max) errs.
	// Object 1: s3 dissents on both properties.
	for i, src := range []string{"s1", "s2", "s3"} {
		obj := b.Object("o0")
		b.ObserveIdx(b.Source(src), obj, cp, data.Cat(x))
		b.ObserveIdx(b.Source(src), obj, np, data.Float(10+float64(i)*0.01))
	}
	b.ObserveIdx(b.Source("s4"), b.Object("o0"), cp, data.Cat(y))
	b.ObserveIdx(b.Source("s4"), b.Object("o0"), np, data.Float(-400))
	o1 := b.Object("o1")
	b.ObserveIdx(b.Source("s1"), o1, cp, data.Cat(x))
	b.ObserveIdx(b.Source("s2"), o1, cp, data.Cat(x))
	b.ObserveIdx(b.Source("s3"), o1, cp, data.Cat(y))
	b.ObserveIdx(b.Source("s4"), o1, cp, data.Cat(y))
	b.ObserveIdx(b.Source("s1"), o1, np, data.Float(5))
	b.ObserveIdx(b.Source("s2"), o1, np, data.Float(5.1))
	b.ObserveIdx(b.Source("s3"), o1, np, data.Float(500))
	b.ObserveIdx(b.Source("s4"), o1, np, data.Float(-300))
	d := b.Build()

	res, err := Run(d, Config{ComputeConfidence: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence == nil || len(res.Confidence) != d.NumEntries() {
		t.Fatal("confidence missing")
	}
	// Near-unanimous entry (only the zero-weight worst source errs):
	// confidence ≈ 1.
	if c := res.Confidence[d.Entry(0, 0)]; c < 0.95 {
		t.Fatalf("near-unanimous categorical confidence = %v", c)
	}
	// Contested entries score strictly lower than unanimous ones.
	if !(res.Confidence[d.Entry(1, 0)] < res.Confidence[d.Entry(0, 0)]) {
		t.Fatalf("contested categorical confidence %v not below unanimous", res.Confidence[d.Entry(1, 0)])
	}
	if !(res.Confidence[d.Entry(1, 1)] < 1) {
		t.Fatalf("outlier-contested continuous confidence = %v", res.Confidence[d.Entry(1, 1)])
	}
	for _, c := range res.Confidence {
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Fatalf("confidence %v out of range", c)
		}
	}
	// Off by default.
	res2, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Confidence != nil {
		t.Fatal("confidence computed without opt-in")
	}
}

// TestZeroWeightVotePicksClaimedValue: under exp-max the worst source
// gets weight exactly 0, so an entry only it claims has an all-zero
// weighted tally. The vote then counts the claims unweighted, as the
// weighted median and SquaredProb already do, instead of taking
// category 0, which nobody claimed on that entry.
func TestZeroWeightVotePicksClaimedValue(t *testing.T) {
	b := data.NewBuilder()
	cp := b.MustProperty("c", data.Categorical)
	a := b.CatValue(cp, "a")
	bv := b.CatValue(cp, "b")
	for i := 0; i < 20; i++ {
		obj := b.Object(objName(i))
		b.ObserveIdx(b.Source("good1"), obj, cp, data.Cat(a))
		b.ObserveIdx(b.Source("good2"), obj, cp, data.Cat(a))
		b.ObserveIdx(b.Source("worst"), obj, cp, data.Cat(bv))
	}
	lone := b.Object("lone")
	b.ObserveIdx(b.Source("worst"), lone, cp, data.Cat(bv))
	d := b.Build()
	for _, workers := range []int{1, 2} {
		res, err := Run(d, Config{ComputeConfidence: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if w := res.Weights[b.Source("worst")]; w != 0 {
			t.Fatalf("worst source weight %v, want 0 (the case under test)", w)
		}
		e := d.Entry(lone, cp)
		if v, ok := res.Truths.Get(e); !ok || int(v.C) != bv {
			t.Errorf("workers=%d: lone entry resolved to %+v (%t), want category %d (the only claim)", workers, v, ok, bv)
		}
		if c := res.Confidence[e]; c != 1 {
			t.Errorf("workers=%d: lone entry confidence %v, want 1", workers, c)
		}
	}
}
