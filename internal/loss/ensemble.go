package loss

import (
	"strings"

	"github.com/crhkit/crh/internal/stats"
)

// EnsembleContinuous combines several continuous losses ("the framework
// can even be adapted to take the ensemble of multiple loss functions for
// a more robust loss computation", Section 2.4): the deviation is the
// weighted average of the member deviations and the truth update is the
// member truths' weighted average, blending, e.g., the robustness of the
// absolute loss with the efficiency of the squared loss.
type EnsembleContinuous struct {
	// Members are the combined losses; MemberWeights their relative
	// influence (uniform when nil).
	Members       []Continuous
	MemberWeights []float64
}

// Name implements Continuous.
func (e EnsembleContinuous) Name() string {
	names := make([]string, len(e.Members))
	for i, m := range e.Members {
		names[i] = m.Name()
	}
	return "ensemble(" + strings.Join(names, "+") + ")"
}

func (e EnsembleContinuous) memberWeight(i int) float64 {
	if e.MemberWeights == nil {
		return 1
	}
	return e.MemberWeights[i]
}

// Truth implements Continuous: the weighted average of the member argmins,
// each computed in the shared scratch. (The exact argmin of a loss
// mixture has no closed form in general; the convex combination of
// member minimizers is the standard surrogate and is exact when all
// members share a minimizer.)
func (e EnsembleContinuous) Truth(vals, ws, vbuf, wbuf []float64) float64 {
	ts := make([]float64, len(e.Members))
	mw := make([]float64, len(e.Members))
	for i, m := range e.Members {
		ts[i] = m.Truth(vals, ws, vbuf, wbuf)
		mw[i] = e.memberWeight(i)
	}
	return stats.WeightedMean(ts, mw)
}

// Deviation implements Continuous: the weighted mean of member deviations.
func (e EnsembleContinuous) Deviation(truth, obs, std float64) float64 {
	var num, den float64
	for i, m := range e.Members {
		w := e.memberWeight(i)
		num += w * m.Deviation(truth, obs, std)
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}
