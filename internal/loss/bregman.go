package loss

import (
	"math"

	"github.com/crhkit/crh/internal/stats"
)

// Bregman is a continuous loss built from a Bregman divergence
//
//	D_φ(x, y) = φ(x) − φ(y) − φ′(y)·(x − y)
//
// for a strictly convex generator φ (Section 2.5 cites the Bregman family —
// squared loss, logistic loss, Itakura-Saito, KL, … — as convex losses that
// guarantee convergence of the framework). A key property of Bregman
// divergences is that the minimizer of Σ_k w_k D_φ(v_k, y) over y is the
// weighted mean of the v_k regardless of φ, so Truth is the weighted mean
// for every generator.
//
// Each deviation is D_φ(obs, truth) normalized by std, matching the
// entry-scale normalization the framework applies to the built-in
// continuous losses.
type Bregman struct {
	// Generator is φ; Gradient is φ′. Both must be defined on the data's
	// domain (e.g., Itakura-Saito requires positive values).
	Generator func(float64) float64
	Gradient  func(float64) float64
	// LossName labels the loss in options and reports.
	LossName string
}

// Name implements Continuous.
func (b Bregman) Name() string {
	if b.LossName != "" {
		return b.LossName
	}
	return "bregman"
}

// Truth implements Continuous: the weighted mean minimizes the total
// weighted divergence for any Bregman generator, and needs no scratch.
func (b Bregman) Truth(vals, ws, _, _ []float64) float64 {
	return stats.WeightedMean(vals, ws)
}

// Deviations implements Continuous.
//
//crh:hotpath
func (b Bregman) Deviations(dst, vals []float64, truth, std float64) {
	s := StdGuard(std)
	for j, obs := range vals {
		d := b.Generator(obs) - b.Generator(truth) - b.Gradient(truth)*(obs-truth)
		if d < 0 {
			// Guard tiny negative values from floating-point error; a
			// true Bregman divergence is non-negative.
			d = 0
		}
		dst[j] = d / s
	}
}

// SquaredBregman returns the squared loss expressed as a Bregman divergence
// (generator x², for which D(x,y) = (x−y)²). Useful mainly for testing the
// Bregman plumbing against NormalizedSquared.
func SquaredBregman() Bregman {
	return Bregman{
		Generator: func(x float64) float64 { return x * x },
		Gradient:  func(x float64) float64 { return 2 * x },
		LossName:  "bregman-squared",
	}
}

// ItakuraSaito returns the Itakura-Saito distance as a Bregman divergence
// (generator −log x), suitable for positive-valued spectral-style data.
func ItakuraSaito() Bregman {
	return Bregman{
		Generator: func(x float64) float64 { return -math.Log(x) },
		Gradient:  func(x float64) float64 { return -1 / x },
		LossName:  "itakura-saito",
	}
}

// GeneralizedIDivergence returns the generalized I-divergence
// (generator x·log x), the unnormalized relative entropy for positive data.
func GeneralizedIDivergence() Bregman {
	return Bregman{
		Generator: func(x float64) float64 { return x * math.Log(x) },
		Gradient:  func(x float64) float64 { return math.Log(x) + 1 },
		LossName:  "generalized-i-divergence",
	}
}

// KLDivergence returns Σ_j p_j·log(p_j/q_j) for probability vectors p and q,
// with 0·log 0 = 0. Infinite when q_j = 0 < p_j. Provided for distribution-
// valued extensions and tests.
func KLDivergence(p, q []float64) float64 {
	var s float64
	for j := range p {
		if p[j] == 0 {
			continue
		}
		if q[j] == 0 {
			return math.Inf(1)
		}
		s += p[j] * math.Log(p[j]/q[j])
	}
	return s
}
