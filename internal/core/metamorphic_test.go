package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/reg"
	"github.com/crhkit/crh/internal/stats"
)

// Metamorphic properties of the solver: relabeling sources, relabeling
// objects, or rescaling every weight by a constant must not change what
// CRH concludes — only how the conclusion is indexed. Permutations
// change floating-point summation order, so those assertions go through
// stats.ApproxEq; the weight-scale property is exact for a power-of-two
// factor and is asserted bit-for-bit.

// mObs is one canonical observation, by stable integer labels, so the
// same logical dataset can be materialized under different internment
// orders.
type mObs struct {
	src, obj, prop int
	v              data.Value
}

const (
	metaSources = 8
	metaObjects = 120
	metaProps   = 4 // f0, f1 continuous; c0, c1 categorical
	metaCats    = 4
)

// metaObservations generates the canonical observation list: planted
// truths, graduated source noise, 30% missingness.
func metaObservations(seed int64) []mObs {
	rng := rand.New(rand.NewSource(seed))
	var out []mObs
	for o := 0; o < metaObjects; o++ {
		for p := 0; p < metaProps; p++ {
			truthF := rng.Float64() * 50
			truthC := rng.Intn(metaCats)
			for k := 0; k < metaSources; k++ {
				if rng.Float64() < 0.3 {
					continue
				}
				var v data.Value
				if p < 2 {
					v = data.Float(truthF + rng.NormFloat64()*(0.5+float64(k)))
				} else {
					c := truthC
					if rng.Float64() < 0.08*float64(k+1) {
						c = rng.Intn(metaCats)
					}
					v = data.Cat(c)
				}
				out = append(out, mObs{src: k, obj: o, prop: p, v: v})
			}
		}
	}
	return out
}

func metaSrcName(k int) string { return fmt.Sprintf("s%02d", k) }
func metaObjName(o int) string { return fmt.Sprintf("o%04d", o) }

// buildMeta materializes the observation list, interning sources and
// objects in the given orders; srcOrder[i] (an original label) becomes
// source index i of the built dataset, and likewise for objects.
// Properties and categorical values are always interned canonically.
func buildMeta(obsList []mObs, srcOrder, objOrder []int) *data.Dataset {
	b := data.NewBuilder()
	props := []int{
		b.MustProperty("f0", data.Continuous),
		b.MustProperty("f1", data.Continuous),
		b.MustProperty("c0", data.Categorical),
		b.MustProperty("c1", data.Categorical),
	}
	for _, p := range props[2:] {
		for c := 0; c < metaCats; c++ {
			b.CatValue(p, fmt.Sprintf("v%d", c))
		}
	}
	for _, k := range srcOrder {
		b.Source(metaSrcName(k))
	}
	for _, o := range objOrder {
		b.Object(metaObjName(o))
	}
	for _, ob := range obsList {
		b.ObserveIdx(b.Source(metaSrcName(ob.src)), b.Object(metaObjName(ob.obj)), props[ob.prop], ob.v)
	}
	return b.Build()
}

func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// metaConfig pins the iteration count (Tol below any achievable relative
// decrease) so both runs of a metamorphic pair execute the same number
// of iterations even when rounding shifts the objective by an ulp near
// the convergence threshold.
func metaConfig() Config {
	return Config{MaxIters: 12, Tol: 1e-300}
}

// TestMetamorphicSourcePermutation: relabeling the sources permutes the
// weight vector and nothing else.
func TestMetamorphicSourcePermutation(t *testing.T) {
	obsList := metaObservations(21)
	base, err := Run(buildMeta(obsList, seqInts(metaSources), seqInts(metaObjects)), metaConfig())
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(2)).Perm(metaSources)
	permuted, err := Run(buildMeta(obsList, perm, seqInts(metaObjects)), metaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations != permuted.Iterations {
		t.Fatalf("iterations differ: %d vs %d", base.Iterations, permuted.Iterations)
	}
	for i, k := range perm {
		if !stats.ApproxEq(permuted.Weights[i], base.Weights[k]) {
			t.Fatalf("weight of source %d: %v (permuted) vs %v (base)", k, permuted.Weights[i], base.Weights[k])
		}
	}
	// Entry indexing is untouched (objects and properties kept their
	// order), so truths must agree entry-for-entry.
	for e := 0; e < metaObjects*metaProps; e++ {
		bv, bok := base.Truths.Get(e)
		pv, pok := permuted.Truths.Get(e)
		if bok != pok {
			t.Fatalf("entry %d presence differs", e)
		}
		if !bok {
			continue
		}
		if bv.C != pv.C || !stats.ApproxEq(bv.F, pv.F) {
			t.Fatalf("entry %d truth differs: %+v vs %+v", e, bv, pv)
		}
	}
}

// TestMetamorphicObjectPermutation: relabeling the objects permutes the
// truth table rows and leaves the weights (approximately) unchanged.
func TestMetamorphicObjectPermutation(t *testing.T) {
	obsList := metaObservations(22)
	base, err := Run(buildMeta(obsList, seqInts(metaSources), seqInts(metaObjects)), metaConfig())
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(3)).Perm(metaObjects)
	permuted, err := Run(buildMeta(obsList, seqInts(metaSources), perm), metaConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range base.Weights {
		if !stats.ApproxEq(base.Weights[k], permuted.Weights[k]) {
			t.Fatalf("weight[%d] differs: %v vs %v", k, base.Weights[k], permuted.Weights[k])
		}
	}
	// Object perm[i] of the base dataset is row i of the permuted one.
	for i, o := range perm {
		for m := 0; m < metaProps; m++ {
			bv, bok := base.Truths.GetAt(o, m)
			pv, pok := permuted.Truths.GetAt(i, m)
			if bok != pok {
				t.Fatalf("object %d prop %d presence differs", o, m)
			}
			if !bok {
				continue
			}
			if bv.C != pv.C || !stats.ApproxEq(bv.F, pv.F) {
				t.Fatalf("object %d prop %d truth differs: %+v vs %+v", o, m, bv, pv)
			}
		}
	}
}

// scaledScheme wraps a weight scheme and multiplies every weight it
// produces by a constant — the metamorphic probe for weight-scale
// invariance. Both compared runs use the wrapper (with factors 1 and c)
// so they exercise the identical solver path.
type scaledScheme struct {
	inner reg.Scheme
	c     float64
}

func (s scaledScheme) Name() string { return fmt.Sprintf("scaledx%g+%s", s.c, s.inner.Name()) }

func (s scaledScheme) Weights(dst, losses []float64, counts []int) {
	s.inner.Weights(dst, losses, counts)
	for i := range dst {
		dst[i] *= s.c
	}
}

// TestMetamorphicWeightScale: multiplying every source weight by a
// positive constant changes no truth — weighted medians and votes depend
// only on weight ratios. With a power-of-two factor the scaling is exact
// in floating point, so the truths must match bit for bit and the scaled
// weights must be exactly factor times the base weights.
func TestMetamorphicWeightScale(t *testing.T) {
	obsList := metaObservations(23)
	d := buildMeta(obsList, seqInts(metaSources), seqInts(metaObjects))
	const factor = 4.0 // power of two: *factor is exact
	cfgBase := metaConfig()
	cfgBase.Scheme = scaledScheme{inner: reg.ExpMax{}, c: 1}
	cfgScaled := metaConfig()
	cfgScaled.Scheme = scaledScheme{inner: reg.ExpMax{}, c: factor}
	base, err := Run(d, cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := Run(d, cfgScaled)
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations != scaled.Iterations {
		t.Fatalf("iterations differ: %d vs %d", base.Iterations, scaled.Iterations)
	}
	for e := 0; e < d.NumEntries(); e++ {
		bv, bok := base.Truths.Get(e)
		sv, sok := scaled.Truths.Get(e)
		if bok != sok {
			t.Fatalf("entry %d presence differs", e)
		}
		if !bok {
			continue
		}
		if bv.C != sv.C || !bitsEq(bv.F, sv.F) {
			t.Fatalf("entry %d truth differs under weight scaling: %+v vs %+v", e, bv, sv)
		}
	}
	for k := range base.Weights {
		if !bitsEq(base.Weights[k]*factor, scaled.Weights[k]) {
			t.Fatalf("weight[%d]: %v*%g != %v", k, base.Weights[k], factor, scaled.Weights[k])
		}
	}
}
