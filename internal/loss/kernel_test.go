package loss

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crhkit/crh/internal/data"
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

// The tests below pin Deviations, the entry-wide scoring the solver
// calls once per entry: for every built-in loss, each dst[j] equals
// the per-claim formula written out here, bit for bit, in a dst that
// starts NaN-filled (so every slot must be written), and vals, codes
// and dist come back unmodified.

// continuousFormula is one built-in continuous loss beside its
// per-claim deviation, written out.
type continuousFormula struct {
	name string
	l    Continuous
	// positive asks for positive values (log-based generators).
	positive bool
	dev      func(truth, v, std float64) float64
}

func bregmanFormula(b Bregman) func(truth, v, std float64) float64 {
	return func(truth, v, std float64) float64 {
		d := b.Generator(v) - b.Generator(truth) - b.Gradient(truth)*(v-truth)
		if d < 0 {
			d = 0
		}
		return d / StdGuard(std)
	}
}

func huberFormula(delta float64) func(truth, v, std float64) float64 {
	return func(truth, v, std float64) float64 {
		r := math.Abs(truth-v) / StdGuard(std)
		if r <= delta {
			return r * r / 2
		}
		return delta * (r - delta/2)
	}
}

func continuousFormulas() []continuousFormula {
	return []continuousFormula{
		{name: "absolute", l: NormalizedAbsolute{}, dev: func(truth, v, std float64) float64 {
			return math.Abs(truth-v) / StdGuard(std)
		}},
		{name: "squared", l: NormalizedSquared{}, dev: func(truth, v, std float64) float64 {
			d := truth - v
			return d * d / StdGuard(std)
		}},
		{name: "huber", l: Huber{}, dev: huberFormula(1.345)},
		{name: "huber-delta-0.5", l: Huber{Delta: 0.5}, dev: huberFormula(0.5)},
		{name: "bregman-squared", l: SquaredBregman(), dev: bregmanFormula(SquaredBregman())},
		{name: "itakura-saito", l: ItakuraSaito(), positive: true, dev: bregmanFormula(ItakuraSaito())},
		{name: "generalized-i-divergence", l: GeneralizedIDivergence(), positive: true, dev: bregmanFormula(GeneralizedIDivergence())},
	}
}

// entryValues draws n quantized values (duplicates and claims equal
// to the truth are common) and a truth among or near them.
func entryValues(rng *rand.Rand, n int, positive bool) (vals []float64, truth float64) {
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64() * 4)
		if positive {
			vals[i] = math.Abs(vals[i]) + 0.5
		}
	}
	truth = vals[rng.Intn(n)]
	if rng.Intn(3) == 0 {
		truth += 0.25
	}
	return vals, truth
}

// entryStd is the spread a trial scores with: every few trials 0, the
// case StdGuard floors.
func entryStd(rng *rand.Rand, trial int) float64 {
	if trial%4 == 0 {
		return 0
	}
	return rng.Float64() * 3
}

func TestContinuousDeviationsMatchFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, f := range continuousFormulas() {
		t.Run(f.name, func(t *testing.T) {
			for trial := 0; trial < 500; trial++ {
				n := 1 + rng.Intn(12)
				vals, truth := entryValues(rng, n, f.positive)
				std := entryStd(rng, trial)
				orig := append([]float64(nil), vals...)
				dst := nanFilled(n)
				f.l.Deviations(dst, vals, truth, std)
				for j, v := range vals {
					if want := f.dev(truth, v, std); math.Float64bits(dst[j]) != math.Float64bits(want) {
						t.Fatalf("trial %d claim %d: %v, want %v (truth=%v v=%v std=%v)", trial, j, dst[j], want, truth, v, std)
					}
				}
				if !sameBits(vals, orig) {
					t.Fatalf("trial %d: vals modified", trial)
				}
			}
		})
	}
}

// TestEnsembleDeviationsMatchMembers: an ensemble's deviation is
// Σ w·member / Σ w over its members' own Deviations, summed in member
// order, and 0 when the member weights sum to 0.
func TestEnsembleDeviationsMatchMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	members := []Continuous{NormalizedAbsolute{}, NormalizedSquared{}, Huber{}}
	for _, mw := range [][]float64{nil, {0.2, 0.5, 0.3}, {0, 1, 0}, {0, 0, 0}, {1, -1, 0}} {
		e := EnsembleContinuous{Members: members, MemberWeights: mw}
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(10)
			vals, truth := entryValues(rng, n, false)
			std := entryStd(rng, trial)
			orig := append([]float64(nil), vals...)
			dst := nanFilled(n)
			e.Deviations(dst, vals, truth, std)
			devs := make([][]float64, len(members))
			for i, m := range members {
				devs[i] = nanFilled(n)
				m.Deviations(devs[i], vals, truth, std)
			}
			for j := range vals {
				var num, den float64
				for i := range members {
					w := 1.0
					if mw != nil {
						w = mw[i]
					}
					num += w * devs[i][j]
					den += w
				}
				want := 0.0
				if den != 0 {
					want = num / den
				}
				if math.Float64bits(dst[j]) != math.Float64bits(want) {
					t.Fatalf("weights %v trial %d claim %d: %v, want %v", mw, trial, j, dst[j], want)
				}
			}
			if !sameBits(vals, orig) {
				t.Fatalf("weights %v trial %d: vals modified", mw, trial)
			}
		}
	}
}

// editFormula is EditDistance's per-claim deviation written out: the
// Levenshtein distance over the longer name's rune count, 1 for the
// truth −1 (no medoid).
func editFormula(p *data.Property, truth int, c uint32) float64 {
	if truth < 0 {
		return 1
	}
	a, b := p.CatName(truth), p.CatName(int(c))
	if a == b {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(max(len([]rune(a)), len([]rune(b))))
}

func TestCategoricalDeviationsMatchFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := catProp(t, "B12", "B-12", "C7", "d", "é", "")
	nc := p.NumCats()
	zeroOne := func(truth int, c uint32) float64 {
		if int(c) == truth {
			return 0
		}
		return 1
	}
	cases := []struct {
		l Categorical
		// withDist scores against the distribution Truth fills.
		withDist bool
		// truthNone draws the truth −1 every few trials.
		truthNone bool
		dev       func(truth int, dist []float64, c uint32) float64
	}{
		{l: ZeroOne{}, dev: func(truth int, _ []float64, c uint32) float64 { return zeroOne(truth, c) }},
		{l: SquaredProb{}, withDist: true, dev: func(_ int, dist []float64, c uint32) float64 {
			var sq float64
			for _, d := range dist {
				sq += d * d
			}
			return sq - 2*dist[c] + 1
		}},
		// A pinned truth has no distribution: SquaredProb is 0-1.
		{l: SquaredProb{}, dev: func(truth int, _ []float64, c uint32) float64 { return zeroOne(truth, c) }},
		{l: EditDistance{}, truthNone: true, dev: func(truth int, _ []float64, c uint32) float64 { return editFormula(p, truth, c) }},
	}
	for _, tc := range cases {
		name := tc.l.Name()
		if tc.l.NeedsDist() && !tc.withDist {
			name += "/nil-dist"
		}
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 500; trial++ {
				n := 1 + rng.Intn(10)
				codes := make([]uint32, n)
				for i := range codes {
					codes[i] = uint32(rng.Intn(nc))
				}
				var dist []float64
				truth := int(codes[rng.Intn(n)])
				if tc.withDist {
					dist = make([]float64, nc)
					truth = tc.l.Truth(codes, scratchWeights(rng, n, trial), make([]float64, nc), dist, p)
				} else if tc.truthNone && trial%5 == 0 {
					truth = -1
				}
				origC, origD := append([]uint32(nil), codes...), append([]float64(nil), dist...)
				dst := nanFilled(n)
				tc.l.Deviations(dst, codes, truth, dist, p)
				for j, c := range codes {
					if want := tc.dev(truth, dist, c); math.Float64bits(dst[j]) != math.Float64bits(want) {
						t.Fatalf("trial %d claim %d: %v, want %v (truth=%d code=%d dist=%v)", trial, j, dst[j], want, truth, c, dist)
					}
				}
				for i := range codes {
					if codes[i] != origC[i] {
						t.Fatalf("trial %d: codes modified", trial)
					}
				}
				if !sameBits(dist, origD) {
					t.Fatalf("trial %d: dist modified", trial)
				}
			}
		})
	}
}
