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

// Deviations implements Continuous: each claim's deviation is the
// weighted mean of the member deviations, summed in member order (0
// when the member weights sum to 0). Each member scores the entry into
// one buffer allocated per call.
func (e EnsembleContinuous) Deviations(dst, vals []float64, truth, std float64) {
	clear(dst)
	dev := make([]float64, len(vals))
	var den float64
	for i, m := range e.Members {
		w := e.memberWeight(i)
		m.Deviations(dev, vals, truth, std)
		for j, d := range dev {
			dst[j] += w * d
		}
		den += w
	}
	if den == 0 {
		clear(dst)
		return
	}
	for j := range dst {
		dst[j] /= den
	}
}
