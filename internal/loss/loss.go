// Package loss provides the loss functions that plug into the CRH
// optimization framework (Section 2.4 of the paper). Each loss couples two
// operations the block-coordinate-descent solver needs:
//
//   - Deviations: d_m(v*, v^k), the penalty for each observation of one
//     entry given its current truth, used in the source-weight update
//     (Step I).
//   - Truth: argmin_v Σ_k w_k · d_m(v, v^k), the weighted aggregation used
//     in the truth update (Step II).
//
// Continuous and categorical properties use distinct interfaces because
// their truth spaces differ: continuous truths range over ℝ while
// categorical truths range over the property's dictionary (optionally with
// a probability distribution over it).
//
// Both operations work on one entry's claims at a time: the solver calls
// each once per entry, so the per-claim arithmetic runs in the loss's own
// loop rather than behind an interface call per claim. Truth receives
// caller-owned scratch and Deviations a caller-owned destination, so a
// loss needs no allocation of its own, and their inputs are read-only:
// the solver hands them views of the dataset's shared claim columns, not
// copies.
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
	// Deviations writes d(truth, vals[j]) normalized by std into dst[j]
	// for each of one entry's observations. vals is read-only; dst has
	// length len(vals) and arbitrary contents on entry.
	Deviations(dst, vals []float64, truth, std float64)
}

// Categorical is a loss over discrete-valued properties. Observations and
// truths are category indices into the property's dictionary.
type Categorical interface {
	// Name identifies the loss in options and reports.
	Name() string
	// NeedsDist reports whether Truth fills a per-entry probability
	// distribution over the categories. When false, Truth and
	// Deviations always receive dist == nil.
	NeedsDist() bool
	// Truth returns the category index minimizing the weighted loss.
	// codes[j] is the jth observer's category index and ws[j] its
	// source weight; both are read-only. votes is scratch of length
	// ≥ p.NumCats() whose contents on entry are arbitrary. When
	// NeedsDist, dist (length p.NumCats()) is scratch that Truth
	// overwrites with the distribution of the entry being resolved.
	Truth(codes []uint32, ws []float64, votes, dist []float64, p *data.Property) int
	// Deviations writes the loss of each of one entry's observations,
	// codes[j], against the entry's current truth into dst[j]. codes and
	// dist are read-only; dst has length len(codes) and arbitrary
	// contents on entry. dist is the distribution Truth just filled for
	// this entry, passed right after Truth and before the scratch is
	// reused; nil for hard losses and for a pinned truth, which no
	// Truth call chose.
	Deviations(dst []float64, codes []uint32, truth int, dist []float64, p *data.Property)
}
