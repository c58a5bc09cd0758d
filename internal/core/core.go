// Package core implements the CRH (Conflict Resolution on Heterogeneous
// data) framework — Algorithm 1 of the paper. Given a multi-source dataset
// with mixed continuous/categorical properties and missing values, it
// jointly estimates a truth table and per-source reliability weights by
// block coordinate descent on
//
//	min_{X*,W}  Σ_k w_k Σ_i Σ_m d_m(v*_im, v^k_im)   s.t. δ(W) = 1,
//
// alternating a source-weight update (Step I, solved by a reg.Scheme) with
// a per-entry truth update (Step II, solved by the loss functions' argmin
// rules) until the objective stabilizes.
//
// The solver's hot loops run on the dataset's entry-major claim columns
// (data.Dataset), beside per-entry spreads computed once per run — or
// once per Prepared when the same dataset is solved repeatedly — so
// steady-state iterations perform no allocations and touch only flat,
// contiguous slices.
package core

import (
	"errors"
	"fmt"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/reg"
)

// Config controls a CRH run. The zero value selects the paper's defaults:
// weighted-median truths for continuous properties (normalized absolute
// loss), weighted voting for categorical properties (0-1 loss), and the
// max-normalized negative-log weight assignment.
type Config struct {
	// ContinuousLoss aggregates and penalizes continuous observations.
	// Defaults to loss.NormalizedAbsolute (weighted median).
	ContinuousLoss loss.Continuous
	// CategoricalLoss aggregates and penalizes categorical observations.
	// Defaults to loss.ZeroOne (weighted voting).
	CategoricalLoss loss.Categorical
	// Scheme assigns source weights from aggregated losses. Defaults to
	// reg.ExpMax.
	Scheme reg.Scheme

	// MaxIters bounds the number of weight/truth iterations. Defaults
	// to 20; the paper observes convergence within a few iterations.
	MaxIters int
	// Workers is the per-run worker budget for the truth and loss
	// computations, which are embarrassingly parallel across entries.
	// 0 selects GOMAXPROCS; 1 forces sequential execution. Output is
	// bit-for-bit identical for every Workers setting: work is split
	// into shards whose boundaries depend only on the dataset, and
	// per-shard partial sums are reduced in fixed shard order, so
	// floating-point summation order never depends on the worker count
	// or scheduling. See docs/PARALLEL.md for the contract.
	Workers int
	// Pool optionally supplies a reusable worker pool shared across
	// runs (see NewPool). Concurrent Run calls may share one pool; the
	// pool size then bounds total solver concurrency while Workers
	// bounds each run's share of it. Nil starts transient helper
	// goroutines for each parallel region.
	Pool *Pool
	// Tol is the convergence threshold: Run stops after an iteration
	// whose relative objective change (prev-obj)/|prev| is below Tol.
	// A rise of the objective is below Tol too, so it also stops the
	// loop and counts as converged; under the default exp-max weights
	// the objective rises at iteration 2 on most inputs, and the run
	// ends there. Defaults to 1e-6.
	Tol float64

	// NormalizeProps rescales each property's per-source average
	// deviations by the property's maximum so heterogeneous loss scales
	// contribute comparably to the weights (Section 2.5,
	// "Normalization"). Defaults to on; set DisablePropNormalization to
	// turn it off.
	DisablePropNormalization bool
	// DisableCountNormalization stops dividing each source's loss by its
	// observation count (Section 2.5, "Missing values"). Defaults to on.
	DisableCountNormalization bool

	// KnownTruths pins entries whose true value is already known
	// (semi-supervised operation): pinned entries are never re-estimated
	// but do contribute to source-weight estimation, so a little
	// supervision sharpens every source's reliability.
	KnownTruths *data.Table

	// ComputeConfidence fills Result.Confidence with a per-entry score
	// in [0, 1]: the weighted fraction of sources that support the
	// chosen truth (categorical: sources voting for it; continuous:
	// sources within one entry-spread of it). Off by default — it costs
	// one extra pass over the observations.
	ComputeConfidence bool

	// Trace receives per-iteration telemetry (objective, per-phase wall
	// time, weight summary, truth-change count) from the
	// block-coordinate-descent loop. Nil — the default — disables
	// instrumentation entirely: the loop computes none of the
	// trace-only quantities, so the hot path stays allocation-free.
	// obs.NewJSONLTrace provides a ready-made JSONL sink.
	Trace obs.SolverTrace

	// PropertyGroups relaxes the source-weight consistency assumption
	// (Section 2.5, "Source weight consistency"): instead of one weight
	// per source, each source gets one weight per group of properties,
	// capturing local reliability (a sensor accurate on temperature but
	// not humidity). Each element lists the property indices of one
	// group; every property must appear in exactly one group. Nil keeps
	// the paper's default of a single global weight per source.
	PropertyGroups [][]int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ContinuousLoss == nil {
		out.ContinuousLoss = loss.NormalizedAbsolute{}
	}
	if out.CategoricalLoss == nil {
		out.CategoricalLoss = loss.ZeroOne{}
	}
	if out.Scheme == nil {
		out.Scheme = reg.ExpMax{}
	}
	if out.MaxIters == 0 {
		out.MaxIters = 20
	}
	if out.Tol == 0 {
		out.Tol = 1e-6
	}
	return out
}

// Result is the output of a CRH run.
type Result struct {
	// Truths holds the inferred value for every entry with at least one
	// observation.
	Truths *data.Table
	// Weights holds one reliability weight per source (the first
	// group's weights when PropertyGroups is set).
	Weights []float64
	// GroupWeights holds the per-group weights when Config.PropertyGroups
	// is set: GroupWeights[g][k] is source k's reliability on group g.
	// Nil for the default single-group configuration.
	GroupWeights [][]float64
	// Objective records the objective value after each iteration's truth
	// update: index 0 is iteration 1's (the initialization pass records
	// none).
	Objective []float64
	// Iterations is the number of weight/truth iterations executed.
	Iterations int
	// Converged reports whether an iteration met Config.Tol before
	// MaxIters: the objective fell by less than Tol relative to the
	// previous iteration, or rose.
	Converged bool
	// Confidence holds one score per entry when
	// Config.ComputeConfidence is set (0 for unresolved entries):
	// the weighted support for the chosen truth.
	Confidence []float64
}

// ErrEmptyDataset is returned when the dataset has no sources or entries.
var ErrEmptyDataset = errors.New("core: empty dataset")

// validateGroups checks that PropertyGroups is a partition of the
// property indices.
func validateGroups(groups [][]int, numProps int) error {
	seen := make([]bool, numProps)
	for gi, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("core: property group %d is empty", gi)
		}
		for _, m := range g {
			if m < 0 || m >= numProps {
				return fmt.Errorf("core: property group %d references property %d of %d", gi, m, numProps)
			}
			if seen[m] {
				return fmt.Errorf("core: property %d appears in multiple groups", m)
			}
			seen[m] = true
		}
	}
	for m, ok := range seen {
		if !ok {
			return fmt.Errorf("core: property %d missing from PropertyGroups", m)
		}
	}
	return nil
}

// Run executes CRH on d. It is deterministic for a given dataset and
// configuration, and its output is bit-for-bit identical for every
// Workers setting (see Config.Workers and docs/PARALLEL.md).
//
// Run prepares the dataset first; callers solving the same dataset
// repeatedly should Prepare once and call Prepared.Run.
func Run(d *data.Dataset, cfg Config) (*Result, error) {
	if d.NumSources() == 0 || d.NumEntries() == 0 {
		return nil, ErrEmptyDataset
	}
	return Prepare(d).Run(cfg)
}

// CombineLosses collapses per-(source, property) deviation sums and
// observation counts, flattened to [k*M+m] over M properties, into the
// per-source losses Step I feeds to the weight scheme, with the count
// and property normalizations cfg selects. Exported for the MapReduce
// driver, which aggregates the sums with a distributed job; it runs the
// in-process solver's own combine routine, so the driver's weights are
// the serial solver's.
func CombineLosses(sum []float64, cnt []int32, M int, cfg Config) []float64 {
	if M == 0 {
		return nil
	}
	K := len(sum) / M
	props := make([]int, M)
	for m := range props {
		props[m] = m
	}
	losses := make([]float64, K)
	combineLosses(losses, sum, cnt, M, props, make([]float64, K*M), &cfg)
	return losses
}
