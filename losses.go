package crh

import (
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// ContinuousLoss measures deviation on real-valued properties and defines
// the corresponding weighted aggregation rule (Section 2.4.2 of the
// paper). Implementations beyond the built-ins can be supplied — any
// Bregman divergence yields a convergent configuration. Truth receives
// scratch buffers with arbitrary contents, and it must treat its values
// and weights as read-only: the solver passes its claim columns
// uncopied.
type ContinuousLoss = loss.Continuous

// CategoricalLoss measures deviation on discrete-valued properties and
// defines the corresponding weighted aggregation rule (Section 2.4.1).
// Truth receives a scratch vote buffer and, when NeedsDist reports true,
// the entry's distribution storage; it must treat its codes and weights
// as read-only.
type CategoricalLoss = loss.Categorical

// WeightScheme maps per-source aggregated losses to source weights — the
// regularization choice δ(W) of Section 2.3. Weights writes into a
// destination buffer, must treat losses and counts as read-only, and
// receives nil counts from callers that track none (incremental CRH).
type WeightScheme = reg.Scheme

// AbsoluteLoss returns the normalized absolute-deviation loss (Eq 15),
// whose truth update is the weighted median (Eq 16) — robust to outliers
// and the paper's default for continuous data.
func AbsoluteLoss() ContinuousLoss { return loss.NormalizedAbsolute{} }

// SquaredLoss returns the normalized squared loss (Eq 13), whose truth
// update is the weighted mean (Eq 14) — efficient but outlier-sensitive.
func SquaredLoss() ContinuousLoss { return loss.NormalizedSquared{} }

// HuberLoss returns the Huber loss: quadratic within delta entry-spreads
// of the truth and linear beyond — a robust middle ground between
// SquaredLoss (efficient, outlier-sensitive) and AbsoluteLoss (robust,
// less efficient). delta 0 selects the classic 1.345. The truth update is
// computed by iteratively reweighted least squares at a robust (MAD)
// scale.
func HuberLoss(delta float64) ContinuousLoss { return loss.Huber{Delta: delta} }

// BregmanLoss returns a continuous loss built from an arbitrary Bregman
// divergence with generator phi and derivative grad; the truth update is
// the weighted mean for every generator. name labels the loss in reports.
func BregmanLoss(name string, phi, grad func(float64) float64) ContinuousLoss {
	return loss.Bregman{Generator: phi, Gradient: grad, LossName: name}
}

// EnsembleLoss combines several continuous losses into one ("the
// framework can even be adapted to take the ensemble of multiple loss
// functions for a more robust loss computation"): deviations and truth
// updates are weighted averages of the members'. memberWeights may be nil
// for a uniform blend.
func EnsembleLoss(memberWeights []float64, members ...ContinuousLoss) ContinuousLoss {
	return loss.EnsembleContinuous{Members: members, MemberWeights: memberWeights}
}

// ZeroOneLoss returns the 0-1 loss (Eq 8), whose truth update is weighted
// voting (Eq 9) — the paper's default for categorical data.
func ZeroOneLoss() CategoricalLoss { return loss.ZeroOne{} }

// ProbabilisticLoss returns the squared loss over one-hot index vectors
// (Eq 10-12): the truth update is a weighted mean of probability vectors,
// giving a soft decision at higher space cost.
func ProbabilisticLoss() CategoricalLoss { return loss.SquaredProb{} }

// EditDistanceLoss returns a categorical loss for string-like values: the
// deviation is length-normalized Levenshtein distance and the truth update
// is the weighted medoid. Useful when near-miss strings (e.g., gate "B12"
// vs "B-12") should be penalized less than unrelated values.
func EditDistanceLoss() CategoricalLoss { return loss.EditDistance{} }

// ExpMaxWeights returns the paper's default weight assignment: the
// exp-regularized scheme of Eq(4) with the max-of-losses normalization
// from Section 2.3, which spreads source weights furthest apart:
//
//	w_k = −log(L_k / max_k' L_k')
func ExpMaxWeights() WeightScheme { return reg.ExpMax{} }

// ExpSumWeights returns the sum-normalized variant — the literal optimum
// of Eq(4)-(5):
//
//	w_k = −log(L_k / Σ_k' L_k')
func ExpSumWeights() WeightScheme { return reg.ExpSum{} }

// BestSourceWeights returns the L^p-norm source-selection scheme of Eq(6):
// all weight concentrates on the single source with the lowest loss.
func BestSourceWeights() WeightScheme { return reg.BestSource{} }

// TopJWeights returns the integer-constrained source selection of Eq(7):
// the j lowest-loss sources get weight 1 and the rest 0.
func TopJWeights(j int) WeightScheme { return reg.TopJ{J: j} }

// CATDWeights returns the confidence-aware weight scheme for long-tail
// data (Li et al., VLDB 2015 — the follow-up work the paper cites as
// [23]): each source's inverse-loss weight is scaled by the χ²(α/2, n)
// lower quantile of its claim count n, so sources with few observations
// are discounted no matter how lucky their record looks. alpha is the
// significance level; 0 selects 0.05.
func CATDWeights(alpha float64) WeightScheme { return reg.CATD{Alpha: alpha} }
