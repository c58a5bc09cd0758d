package loss

import (
	"math"

	"github.com/crhkit/crh/internal/stats"
)

// StdGuard returns a safe normalizer: entries on which all sources agree
// have zero spread; their deviations are zero anyway for exact agreement,
// and near-agreement should not blow up, so the normalizer is floored at
// 1e-12. The solver's confidence band uses the same floor.
func StdGuard(std float64) float64 {
	const eps = 1e-12
	if std < eps {
		return eps
	}
	return std
}

// NormalizedSquared is the normalized squared loss of Eq(13):
//
//	d(v*, v) = (v* − v)² / std
//
// whose weighted-loss minimizer is the weighted mean (Eq 14). It is the
// natural choice for well-behaved continuous data but is sensitive to
// outliers.
type NormalizedSquared struct{}

// Name implements Continuous.
func (NormalizedSquared) Name() string { return "squared" }

// Truth implements Continuous: the weighted mean, which needs no
// scratch.
func (NormalizedSquared) Truth(vals, ws, _, _ []float64) float64 {
	return stats.WeightedMean(vals, ws)
}

// Deviation implements Continuous.
func (NormalizedSquared) Deviation(truth, obs, std float64) float64 {
	d := truth - obs
	return d * d / StdGuard(std)
}

// NormalizedAbsolute is the normalized absolute-deviation loss of Eq(15):
//
//	d(v*, v) = |v* − v| / std
//
// whose weighted-loss minimizer is the weighted median (Eq 16). It is
// robust to outliers and is the paper's default for continuous data.
type NormalizedAbsolute struct{}

// Name implements Continuous.
func (NormalizedAbsolute) Name() string { return "absolute" }

// Truth implements Continuous: the weighted median, computed by expected
// O(n) quickselect into the scratch (the solver's hottest path on
// continuous data).
func (NormalizedAbsolute) Truth(vals, ws, vbuf, wbuf []float64) float64 {
	return stats.WeightedMedianBuf(vals, ws, vbuf, wbuf)
}

// Deviation implements Continuous.
func (NormalizedAbsolute) Deviation(truth, obs, std float64) float64 {
	return math.Abs(truth-obs) / StdGuard(std)
}
