package core

import (
	"math/rand"
	"testing"

	"github.com/crhkit/crh/internal/data"
)

// Metamorphic properties of the claim columns, at medium scale. Build
// sorts the claims by entry and source, so the columns never reflect
// builder insertion order, and two transformations must be exactly
// invisible — not approximately, bit for bit:
//
//   - permuting the order observations are fed to the Builder, and
//   - injecting duplicate claims that an earlier observation of the
//     same (source, entry) later overwrites (Build keeps the last).
//
// These run on a dataset an order of magnitude larger than the other
// metamorphic cases so the CSR layout, the dictionary interning and the
// shard partials all operate well past their small-case paths.

const (
	mcSources = 12
	mcObjects = 500
)

// mcObservations generates the medium-scale canonical observation list
// on the shared 4-property schema (f0, f1 continuous; c0, c1
// categorical), one claim per (source, entry) so any reordering is a
// pure permutation.
func mcObservations(seed int64) []mObs {
	rng := rand.New(rand.NewSource(seed))
	var out []mObs
	for o := 0; o < mcObjects; o++ {
		for p := 0; p < metaProps; p++ {
			truthF := rng.Float64() * 50
			truthC := rng.Intn(metaCats)
			for k := 0; k < mcSources; k++ {
				if rng.Float64() < 0.3 {
					continue
				}
				var v data.Value
				if p < 2 {
					v = data.Float(truthF + rng.NormFloat64()*(0.5+0.4*float64(k)))
				} else {
					c := truthC
					if rng.Float64() < 0.05*float64(k+1) {
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

// mcRun builds the dataset with canonical source/object interning and
// solves it under the pinned-iteration config.
func mcRun(t *testing.T, obsList []mObs) *Result {
	t.Helper()
	res, err := Run(buildMeta(obsList, seqInts(mcSources), seqInts(mcObjects)), metaConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mcAssertBitIdentical compares two results entry-for-entry and
// source-for-source at the bit level.
func mcAssertBitIdentical(t *testing.T, base, got *Result, what string) {
	t.Helper()
	if base.Iterations != got.Iterations {
		t.Fatalf("%s: iterations differ: %d vs %d", what, base.Iterations, got.Iterations)
	}
	for k := range base.Weights {
		if !bitsEq(base.Weights[k], got.Weights[k]) {
			t.Fatalf("%s: weight[%d] differs: %v vs %v", what, k, base.Weights[k], got.Weights[k])
		}
	}
	for e := 0; e < mcObjects*metaProps; e++ {
		bv, bok := base.Truths.Get(e)
		gv, gok := got.Truths.Get(e)
		if bok != gok {
			t.Fatalf("%s: entry %d presence differs", what, e)
		}
		if !bok {
			continue
		}
		if bv.C != gv.C || !bitsEq(bv.F, gv.F) {
			t.Fatalf("%s: entry %d truth differs: %+v vs %+v", what, e, bv, gv)
		}
	}
}

// TestMetamorphicInsertionOrder: Build's sort erases the order
// observations reach the Builder, so a shuffled feed must reproduce the
// canonical run bit for bit.
func TestMetamorphicInsertionOrder(t *testing.T) {
	obsList := mcObservations(31)
	base := mcRun(t, obsList)
	shuffled := append([]mObs(nil), obsList...)
	rand.New(rand.NewSource(4)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	mcAssertBitIdentical(t, base, mcRun(t, shuffled), "insertion-order permutation")
}

// TestMetamorphicDuplicateClaims: Build keeps the last value recorded
// per (source, entry), so decoy claims that a later canonical claim
// overwrites — and exact repeats of the canonical claim itself — must
// leave the claim columns, and therefore the solve, bit-identical.
func TestMetamorphicDuplicateClaims(t *testing.T) {
	obsList := mcObservations(32)
	base := mcRun(t, obsList)

	rng := rand.New(rand.NewSource(5))
	decoys := make([]mObs, 0, len(obsList)/4)
	for _, ob := range obsList {
		switch {
		case rng.Float64() < 0.15:
			// A conflicting decoy the canonical claim later overwrites.
			d := ob
			if d.prop < 2 {
				d.v = data.Float(d.v.F + 7.5)
			} else {
				d.v = data.Cat((int(d.v.C) + 1) % metaCats)
			}
			decoys = append(decoys, d)
		case rng.Float64() < 0.1:
			// An exact repeat; last-wins makes it a no-op either way.
			decoys = append(decoys, ob)
		}
	}
	if len(decoys) < len(obsList)/20 {
		t.Fatalf("generator produced too few duplicates (%d) to exercise last-wins", len(decoys))
	}
	// Every decoy precedes its canonical claim, so Build's last-wins
	// rule restores the canonical dataset exactly.
	withDups := append(decoys, obsList...)
	mcAssertBitIdentical(t, base, mcRun(t, withDups), "duplicate-claim injection")
}
