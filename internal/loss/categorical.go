package loss

import (
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/stats"
)

// ZeroOne is the 0-1 loss of Eq(8): an observation costs 1 when it differs
// from the truth and 0 otherwise. Its weighted-loss minimizer is the value
// with the highest weighted vote (Eq 9). This is the paper's default for
// categorical data thanks to its time and space efficiency.
type ZeroOne struct{}

// Name implements Categorical.
func (ZeroOne) Name() string { return "zero-one" }

// NeedsDist implements Categorical: 0-1 truths are hard decisions.
func (ZeroOne) NeedsDist() bool { return false }

// Truth implements Categorical: weighted voting, tallied into votes.
// Ties break toward the lowest category index, which makes results
// deterministic.
func (ZeroOne) Truth(codes []uint32, ws []float64, votes, _ []float64, p *data.Property) int {
	votes = votes[:p.NumCats()]
	for i := range votes {
		votes[i] = 0
	}
	for j, c := range codes {
		votes[c] += ws[j]
	}
	return stats.ArgMax(votes)
}

// Deviation implements Categorical.
func (ZeroOne) Deviation(truth int, _ []float64, obs int, _ *data.Property) float64 {
	if truth == obs {
		return 0
	}
	return 1
}

// SquaredProb is the probabilistic strategy of Eq(10)-(12): categorical
// observations are one-hot index vectors, the truth is a probability
// distribution over categories obtained as the weighted mean of those
// vectors, and the loss is the squared Euclidean distance between the truth
// distribution and an observation's one-hot vector. It yields a soft
// decision (the reported truth is the distribution's mode) at the cost of
// higher space complexity.
type SquaredProb struct{}

// Name implements Categorical.
func (SquaredProb) Name() string { return "squared-prob" }

// NeedsDist implements Categorical: the truth is a distribution.
func (SquaredProb) NeedsDist() bool { return true }

// Truth implements Categorical: the normalized weighted mean of one-hot
// vectors (Eq 12), computed into dist, reported as its argmax.
func (SquaredProb) Truth(codes []uint32, ws []float64, _, dist []float64, p *data.Property) int {
	dist = dist[:p.NumCats()]
	for i := range dist {
		dist[i] = 0
	}
	var total float64
	for j, c := range codes {
		dist[c] += ws[j]
		total += ws[j]
	}
	if total > 0 {
		for i := range dist {
			dist[i] /= total
		}
	} else if len(codes) > 0 {
		// Zero total weight: fall back to an unweighted distribution.
		u := 1 / float64(len(codes))
		for i := range dist {
			dist[i] = 0
		}
		for _, c := range codes {
			dist[c] += u
		}
	}
	return stats.ArgMax(dist)
}

// Deviation implements Categorical: ‖I* − I_obs‖² where I* is the truth
// distribution and I_obs the observation's one-hot vector. Expanded,
// Σ_j I*_j² − 2·I*_obs + 1, computed in O(L).
func (SquaredProb) Deviation(truth int, dist []float64, obs int, p *data.Property) float64 {
	if dist == nil {
		// No distribution available (a pinned or seeded truth): the
		// truth is a hard label, so degrade to the 0-1 loss.
		return ZeroOne{}.Deviation(truth, nil, obs, p)
	}
	var sq float64
	for _, d := range dist {
		sq += d * d
	}
	return sq - 2*dist[obs] + 1
}
