package loss

import (
	"math"
	"math/rand"
	"testing"
)

// The two tests below pin the contract the solver relies on when it
// hands a loss the dataset's claim columns uncopied: for every built-in
// loss, Truth returns exactly the bits with NaN-filled scratch that it
// returns with clean scratch (and SquaredProb fills the same
// distribution), and vals, ws and codes come back unmodified. Coarse
// quantization provokes duplicate values and the median's tie paths;
// every few trials the weights are all zero.

// nanFilled returns a scratch buffer of length n holding NaNs.
func nanFilled(n int) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// scratchWeights draws n quantized weights, all zero every fifth trial.
func scratchWeights(rng *rand.Rand, n, trial int) []float64 {
	ws := make([]float64, n)
	if trial%5 != 0 {
		for i := range ws {
			ws[i] = math.Round(rng.Float64()*8) / 4
		}
	}
	return ws
}

func TestContinuousKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	continuous := []Continuous{
		NormalizedAbsolute{}, NormalizedSquared{}, Huber{}, SquaredBregman(),
		EnsembleContinuous{Members: []Continuous{NormalizedAbsolute{}, Huber{}}},
	}
	for _, l := range continuous {
		t.Run(l.Name(), func(t *testing.T) {
			for trial := 0; trial < 500; trial++ {
				n := 1 + rng.Intn(12)
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = math.Round(rng.NormFloat64() * 4)
				}
				ws := scratchWeights(rng, n, trial)
				origV, origW := append([]float64(nil), vals...), append([]float64(nil), ws...)
				want := l.Truth(vals, ws, make([]float64, n), make([]float64, n))
				got := l.Truth(vals, ws, nanFilled(n), nanFilled(n))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: NaN scratch %v, clean scratch %v (vals=%v ws=%v)", trial, got, want, vals, ws)
				}
				if !sameBits(vals, origV) || !sameBits(ws, origW) {
					t.Fatalf("trial %d: inputs modified", trial)
				}
			}
		})
	}
}

func TestCategoricalKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := catProp(t, "B12", "B-12", "C7", "d", "e")
	nc := p.NumCats()
	for _, l := range []Categorical{ZeroOne{}, SquaredProb{}, EditDistance{}} {
		t.Run(l.Name(), func(t *testing.T) {
			for trial := 0; trial < 500; trial++ {
				n := 1 + rng.Intn(10)
				codes := make([]uint32, n)
				for i := range codes {
					codes[i] = uint32(rng.Intn(nc))
				}
				ws := scratchWeights(rng, n, trial)
				origC, origW := append([]uint32(nil), codes...), append([]float64(nil), ws...)
				var wantDist, gotDist []float64
				if l.NeedsDist() {
					wantDist, gotDist = make([]float64, nc), nanFilled(nc)
				}
				want := l.Truth(codes, ws, make([]float64, nc), wantDist, p)
				got := l.Truth(codes, ws, nanFilled(nc), gotDist, p)
				if got != want || !sameBits(gotDist, wantDist) {
					t.Fatalf("trial %d: NaN scratch %d %v, clean scratch %d %v (codes=%v ws=%v)", trial, got, gotDist, want, wantDist, codes, ws)
				}
				for i := range codes {
					if codes[i] != origC[i] {
						t.Fatalf("trial %d: codes modified", trial)
					}
				}
				if !sameBits(ws, origW) {
					t.Fatalf("trial %d: weights modified", trial)
				}
			}
		})
	}
}
