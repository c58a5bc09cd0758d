package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{35, 15, 50, 20, 40}
	for _, tc := range []struct {
		p, want float64
	}{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := nearestRank(xs, tc.p); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("nearestRank(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 35 || xs[4] != 40 {
		t.Errorf("nearestRank reordered its input: %v", xs)
	}
	if got := nearestRank(nil, 50); !math.IsNaN(got) {
		t.Errorf("nearestRank of no samples = %g, want NaN", got)
	}
}

// A nearest-rank percentile is always an observed sample, so it can never
// exceed the maximum the way a bucket interpolation can.
func TestNearestRankIsASample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(50))
		seen := map[uint64]bool{}
		hi := math.Inf(-1)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
			seen[math.Float64bits(xs[i])] = true
			hi = math.Max(hi, xs[i])
		}
		for _, p := range []float64{50, 95, 99, 99.9} {
			v := nearestRank(xs, p)
			if !seen[math.Float64bits(v)] || v > hi {
				t.Fatalf("nearestRank(%v, p%g) = %g: not a sample at or below the max %g", xs, p, v, hi)
			}
		}
	}
}

func TestBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p95 of 1..200 is 190: ten samples lie beyond it.
	if got := beyond(xs, 95); got != 10 {
		t.Errorf("beyond(1..200, p95) = %d, want 10", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) with its
// default (exclusive) method, so spreads printed here match spreads
// computed from the JSON results with Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{0.5, 9, 2.5, 7, 1.25, 4}, [3]float64{1.0625, 3.25, 7.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if q1, m, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(m) || !math.IsNaN(q3) {
		t.Error("quartiles of no samples should be NaN")
	}
}

func TestSpread(t *testing.T) {
	// (8.25 - 2.75) / 5.5 = 1
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := mean(xs); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("mean = %g, want 5.5", got)
	}
}
