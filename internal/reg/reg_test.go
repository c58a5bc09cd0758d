package reg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// weights runs s into a fresh destination.
func weights(s Scheme, losses []float64, counts []int) []float64 {
	dst := make([]float64, len(losses))
	s.Weights(dst, losses, counts)
	return dst
}

func TestExpSumOrdering(t *testing.T) {
	ws := weights(ExpSum{}, []float64{1, 2, 4}, nil)
	if len(ws) != 3 {
		t.Fatal("length")
	}
	if !(ws[0] > ws[1] && ws[1] > ws[2]) {
		t.Fatalf("weights %v should strictly decrease with loss", ws)
	}
	// Closed form: w_k = −log(L_k / ΣL).
	want := -math.Log(1.0 / 7.0)
	if math.Abs(ws[0]-want) > 1e-9 {
		t.Fatalf("ws[0] = %v, want %v", ws[0], want)
	}
}

func TestExpMaxOrdering(t *testing.T) {
	ws := weights(ExpMax{}, []float64{1, 2, 4}, nil)
	if !(ws[0] > ws[1] && ws[1] > ws[2]) {
		t.Fatalf("weights %v should strictly decrease with loss", ws)
	}
	// Worst source gets exactly 0 under max normalization.
	if ws[2] != 0 {
		t.Fatalf("worst-source weight = %v, want 0", ws[2])
	}
	// w_0 = −log(1/4).
	if math.Abs(ws[0]-math.Log(4)) > 1e-9 {
		t.Fatalf("ws[0] = %v, want log4", ws[0])
	}
}

func TestExpMaxSpreadsMoreThanExpSum(t *testing.T) {
	losses := []float64{1, 2, 4, 8}
	sum := weights(ExpSum{}, losses, nil)
	max := weights(ExpMax{}, losses, nil)
	spread := func(ws []float64) float64 {
		lo, hi := ws[0], ws[0]
		for _, w := range ws {
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
		if hi == 0 {
			return 0
		}
		return (hi - lo) / hi
	}
	if !(spread(max) > spread(sum)) {
		t.Fatalf("max-normalized relative spread %v should exceed sum-normalized %v", spread(max), spread(sum))
	}
}

func TestZeroLossGuards(t *testing.T) {
	for _, s := range []Scheme{ExpSum{}, ExpMax{}} {
		// A perfect source must get a large finite weight.
		ws := weights(s, []float64{0, 1}, nil)
		if math.IsInf(ws[0], 0) || math.IsNaN(ws[0]) {
			t.Fatalf("%s: perfect-source weight = %v", s.Name(), ws[0])
		}
		if !(ws[0] > ws[1]) {
			t.Fatalf("%s: perfect source should outrank lossy one: %v", s.Name(), ws)
		}
		// All-zero losses: uniform positive weights.
		ws = weights(s, []float64{0, 0, 0}, nil)
		for _, w := range ws {
			if w != 1 {
				t.Fatalf("%s: all-zero weights = %v, want all 1", s.Name(), ws)
			}
		}
	}
}

func TestSchemesNonNegativeFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	schemes := []Scheme{ExpSum{}, ExpMax{}, BestSource{}, TopJ{J: 2}, CATD{}}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		losses := make([]float64, n)
		for i := range losses {
			if rng.Intn(5) == 0 {
				losses[i] = 0
			} else {
				losses[i] = rng.Float64() * 10
			}
		}
		for _, s := range schemes {
			// Stale weights in the destination must not leak through.
			ws := make([]float64, n)
			for i := range ws {
				ws[i] = math.NaN()
			}
			s.Weights(ws, losses, nil)
			for _, w := range ws {
				if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
					t.Fatalf("%s: bad weight %v for losses %v", s.Name(), w, losses)
				}
			}
		}
	}
}

func TestBestSource(t *testing.T) {
	ws := weights(BestSource{}, []float64{3, 1, 2}, nil)
	if ws[1] != 1 || ws[0] != 0 || ws[2] != 0 {
		t.Fatalf("BestSource weights = %v", ws)
	}
	if ws := weights(BestSource{}, nil, nil); len(ws) != 0 {
		t.Fatal("empty input")
	}
}

func TestTopJ(t *testing.T) {
	ws := weights(TopJ{J: 2}, []float64{3, 1, 2, 9}, nil)
	want := []float64{0, 1, 1, 0}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("TopJ{2} = %v, want %v", ws, want)
		}
	}
	// J clamped to [1, K].
	ws = weights(TopJ{J: 0}, []float64{5, 1}, nil)
	if ws[0] != 0 || ws[1] != 1 {
		t.Fatalf("TopJ{0} = %v, want single best", ws)
	}
	ws = weights(TopJ{J: 99}, []float64{5, 1}, nil)
	if ws[0] != 1 || ws[1] != 1 {
		t.Fatalf("TopJ{99} = %v, want all selected", ws)
	}
}

// TestMonotoneQuick property-tests that both log schemes are monotone:
// lower loss never yields lower weight.
func TestMonotoneQuick(t *testing.T) {
	for _, s := range []Scheme{ExpSum{}, ExpMax{}} {
		f := func(raw []uint8) bool {
			if len(raw) < 2 {
				return true
			}
			if len(raw) > 10 {
				raw = raw[:10]
			}
			losses := make([]float64, len(raw))
			for i, r := range raw {
				losses[i] = float64(r) / 16
			}
			ws := weights(s, losses, nil)
			for i := range losses {
				for j := range losses {
					if losses[i] < losses[j] && ws[i] < ws[j]-1e-12 {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestNames(t *testing.T) {
	if (ExpSum{}).Name() == "" || (ExpMax{}).Name() == "" || (BestSource{}).Name() == "" || (TopJ{}).Name() == "" {
		t.Error("schemes must be named")
	}
}

// TestWeightsAllocFree pins the zero-allocation contract of every
// built-in scheme, with and without counts.
func TestWeightsAllocFree(t *testing.T) {
	losses := []float64{0.5, 1.25, 0.75, 2, 0.1, 0.9}
	counts := []int{3, 40, 7, 1, 12, 9}
	dst := make([]float64, len(losses))
	for _, s := range []Scheme{ExpMax{}, ExpSum{}, BestSource{}, TopJ{J: 2}, CATD{}} {
		for _, c := range [][]int{nil, counts} {
			allocs := testing.AllocsPerRun(100, func() {
				s.Weights(dst, losses, c)
			})
			if allocs != 0 {
				t.Fatalf("%s.Weights (counts %v) allocates %.0f objects per call, want 0", s.Name(), c, allocs)
			}
		}
	}
}
