// Package loss provides the loss functions that plug into the CRH
// optimization framework (Section 2.4 of the paper). Each loss couples two
// operations the block-coordinate-descent solver needs:
//
//   - Deviation: d_m(v*, v^k), the penalty for an observation given the
//     current truth, used in the source-weight update (Step I).
//   - Truth: argmin_v Σ_k w_k · d_m(v, v^k), the weighted aggregation used
//     in the truth update (Step II).
//
// Continuous and categorical properties use distinct interfaces because
// their truth spaces differ: continuous truths range over ℝ while
// categorical truths range over the property's dictionary (optionally with
// a probability distribution over it).
//
// Truth receives caller-owned scratch, so a loss needs no allocation of
// its own, and its inputs are read-only: the solver hands it views of the
// dataset's shared claim columns, not copies.
package loss

import "github.com/crhkit/crh/internal/data"

// Continuous is a loss over real-valued properties. std is the standard
// deviation of the entry's observations across sources, used to normalize
// deviations so that entries with different scales contribute comparably
// (Eq 13 and Eq 15); implementations must tolerate std == 0.
type Continuous interface {
	// Name identifies the loss in options and reports.
	Name() string
	// Truth returns argmin_v Σ_k ws[k] · d(v, vals[k]). vals and ws are
	// read-only. vbuf and wbuf (each of length ≥ len(vals)) are scratch
	// the loss may overwrite; their contents on entry are arbitrary.
	Truth(vals, ws, vbuf, wbuf []float64) float64
	// Deviation returns d(truth, obs) normalized by std.
	Deviation(truth, obs, std float64) float64
}

// Categorical is a loss over discrete-valued properties. Observations and
// truths are category indices into the property's dictionary.
type Categorical interface {
	// Name identifies the loss in options and reports.
	Name() string
	// NeedsDist reports whether Truth fills a per-entry probability
	// distribution over the categories. When false, Truth and Deviation
	// always receive dist == nil.
	NeedsDist() bool
	// Truth returns the category index minimizing the weighted loss.
	// codes[j] is the jth observer's category index and ws[j] its
	// source weight; both are read-only. votes is scratch of length
	// ≥ p.NumCats() whose contents on entry are arbitrary. When
	// NeedsDist, dist (length p.NumCats()) is the entry's distribution
	// storage, which Truth overwrites and Deviation later receives.
	Truth(codes []uint32, ws []float64, votes, dist []float64, p *data.Property) int
	// Deviation returns the loss of an observation against the current
	// truth. dist is the distribution Truth filled, or nil for hard
	// losses and for truths no Truth call chose (pinned or seeded).
	Deviation(truth int, dist []float64, obs int, p *data.Property) float64
}
