package reg

import (
	"math"
	"testing"
)

func TestCATDDiscountsLuckySparseSource(t *testing.T) {
	// Source 0: 3 observations, zero loss (lucky). Source 1: 3000
	// observations, tiny loss (genuinely good). Source 2: 3000
	// observations, bad.
	losses := []float64{0, 0.02, 0.5}
	counts := []int{3, 3000, 3000}
	ws := weights(CATD{}, losses, counts)
	if !(ws[1] > ws[0]) {
		t.Fatalf("dense good source (%v) should outrank lucky sparse one (%v)", ws[1], ws[0])
	}
	if !(ws[1] > ws[2]) {
		t.Fatalf("good source (%v) should outrank bad one (%v)", ws[1], ws[2])
	}
	// Contrast: ExpMax over-trusts the lucky source (this is the
	// long-tail failure CATD fixes).
	em := weights(ExpMax{}, losses, nil)
	if !(em[0] > em[1]) {
		t.Fatalf("precondition: ExpMax should over-trust the zero-loss source: %v", em)
	}
}

func TestCATDManyClaimsApproachInverseLoss(t *testing.T) {
	// With equal large counts, CATD ranks by inverse loss.
	losses := []float64{0.1, 0.2, 0.4}
	counts := []int{5000, 5000, 5000}
	ws := weights(CATD{}, losses, counts)
	if !(ws[0] > ws[1] && ws[1] > ws[2]) {
		t.Fatalf("weights %v should decrease with loss", ws)
	}
	// Ratio ws[0]/ws[1] ≈ loss[1]/loss[0] = 2 at large n.
	if r := ws[0] / ws[1]; math.Abs(r-2) > 0.1 {
		t.Fatalf("large-n weight ratio = %v, want ≈2", r)
	}
}

func TestCATDEdgeCases(t *testing.T) {
	// All-zero losses: uniform.
	ws := weights(CATD{}, []float64{0, 0}, []int{5, 10})
	if ws[0] != 1 || ws[1] != 1 {
		t.Fatalf("all-zero losses: %v", ws)
	}
	// Zero count: weight 0.
	ws = weights(CATD{}, []float64{0.1, 0.1}, []int{0, 10})
	if ws[0] != 0 {
		t.Fatalf("zero-count weight = %v", ws[0])
	}
	// Without counts (nil) every source counts as observed once.
	ws = weights(CATD{}, []float64{0.1, 0.4}, nil)
	if once := weights(CATD{}, []float64{0.1, 0.4}, []int{1, 1}); ws[0] != once[0] || ws[1] != once[1] {
		t.Fatalf("nil counts %v, unit counts %v", ws, once)
	}
	if !(ws[0] > ws[1]) || ws[0] <= 0 {
		t.Fatalf("count-free CATD: %v", ws)
	}
	for _, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			t.Fatalf("bad weight %v", w)
		}
	}
	if (CATD{}).Name() != "catd" {
		t.Fatal("name")
	}
}

func TestCATDCustomAlpha(t *testing.T) {
	losses := []float64{0.1, 0.1}
	counts := []int{5, 500}
	strict := weights(CATD{Alpha: 0.01}, losses, counts)
	loose := weights(CATD{Alpha: 0.5}, losses, counts)
	// A stricter confidence level discounts the sparse source harder
	// (relative to the dense one).
	if !(strict[0]/strict[1] < loose[0]/loose[1]) {
		t.Fatalf("alpha ordering: strict ratio %v, loose ratio %v", strict[0]/strict[1], loose[0]/loose[1])
	}
}
