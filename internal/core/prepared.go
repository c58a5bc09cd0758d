package core

import (
	"math"
	"time"

	"github.com/crhkit/crh/internal/col"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/stats"
)

// Prepared is a dataset frozen for solving: the columnar claim index
// (internal/col) plus the per-entry statistics every run needs but no
// run mutates. Preparing costs one scan of the dataset; once built, a
// Prepared is immutable and safe for any number of concurrent Run /
// AggregateTruths / SourceLosses calls. Callers that solve the same
// dataset repeatedly — the resolve server's snapshots, the streaming
// processor's warm chunks, benchmark sweeps — should Prepare once and
// reuse it; the package-level Run freezes on every call.
type Prepared struct {
	d    *data.Dataset
	cols *col.Columns
	// props caches the property descriptors in index order so hot loops
	// resolve them without re-deriving from the dataset.
	props []*data.Property
	// entryStd caches each continuous entry's observation spread for
	// loss normalization (Eq 13/15). Zero for categorical entries.
	entryStd []float64
	// defaultGroups is the default property grouping: one group holding
	// every property.
	defaultGroups [][]int
}

// Prepare freezes d's columnar view and per-entry statistics. The
// dataset must not be mutated afterwards (datasets built by
// data.Builder are immutable already).
func Prepare(d *data.Dataset) *Prepared {
	c := col.Freeze(d)
	p := &Prepared{
		d:        d,
		cols:     c,
		props:    make([]*data.Property, d.NumProps()),
		entryStd: make([]float64, d.NumEntries()),
	}
	all := make([]int, d.NumProps())
	for m := range p.props {
		p.props[m] = d.Prop(m)
		all[m] = m
	}
	p.defaultGroups = [][]int{all}
	for e := 0; e < d.NumEntries(); e++ {
		// Entries are gathered in the same (source-ascending) order the
		// row-major solver used, so the computed spreads are bit-identical.
		if c.PropKind[c.EntryProp(e)] == data.Continuous {
			p.entryStd[e] = stats.Std(c.Floats(e))
		}
	}
	return p
}

// Dataset returns the dataset this Prepared was frozen from.
func (p *Prepared) Dataset() *data.Dataset { return p.d }

// Run executes CRH over the prepared dataset. See the package-level Run
// for the semantics; this variant skips the per-call freeze.
func (p *Prepared) Run(cfg Config) (*Result, error) {
	if p.d.NumSources() == 0 || p.d.NumEntries() == 0 {
		return nil, ErrEmptyDataset
	}
	cfg = cfg.withDefaults()
	if cfg.PropertyGroups != nil {
		if err := validateGroups(cfg.PropertyGroups, p.d.NumProps()); err != nil {
			return nil, err
		}
	}
	s := newSolver(p, cfg)

	// Initialization: either the caller's truths or one truth update
	// under uniform weights — the Voting/Averaging start the paper
	// recommends (Section 2.5, "Initialization"). Either way the pass
	// scores the initial truths, so iteration 1's weight update is the
	// scheme alone. Seeded truths have no truth pass to fold the scoring
	// into and get a scoring pass of their own.
	if cfg.InitTruths != nil {
		s.truths = cfg.InitTruths.Clone()
		s.pinKnown()
		s.sweep(passScore)
	} else {
		s.setUniformWeights()
		s.sweep(passResolve | passScore)
	}

	// The per-iteration appends stay within these capacities, so the
	// iteration loop itself performs no allocations.
	res := &Result{
		Objective: make([]float64, 0, cfg.MaxIters),
		IterTime:  make([]time.Duration, 0, cfg.MaxIters),
	}
	// Each iteration walks the claims once: Step II's pass also scores
	// the truths it chooses, leaving the losses that the objective
	// weighs and the next iteration's Step I turns into weights.
	work := passResolve | passScore
	if cfg.Trace != nil {
		work |= passCount
	}
	prevObj := math.Inf(1)
	for it := 0; it < cfg.MaxIters; it++ {
		t0 := time.Now()
		s.updateWeights()
		tW := time.Now()
		changes := s.sweep(work)
		truthWorkers := s.lastWorkers
		tT := time.Now()
		obj := s.objective()
		tO := time.Now()
		res.Objective = append(res.Objective, obj)
		res.IterTime = append(res.IterTime, tO.Sub(t0))
		res.Iterations = it + 1
		if !math.IsInf(prevObj, 1) {
			denom := math.Abs(prevObj)
			if denom < 1e-12 {
				denom = 1e-12
			}
			if (prevObj-obj)/denom < cfg.Tol {
				res.Converged = true
			}
		}
		prevObj = obj
		if cfg.Trace != nil {
			cfg.Trace.TraceIteration(obs.IterationTrace{
				Iteration:      it + 1,
				Objective:      obj,
				WeightPhase:    tW.Sub(t0),
				TruthPhase:     tT.Sub(tW),
				ObjectivePhase: tO.Sub(tT),
				TruthChanges:   changes,
				WeightWorkers:  1,
				TruthWorkers:   truthWorkers,
				Weights:        obs.SummarizeWeights(s.weights[0]),
				Converged:      res.Converged,
			})
		}
		if res.Converged {
			break
		}
	}
	res.Truths = s.truths
	res.Weights = s.weights[0]
	if cfg.PropertyGroups != nil {
		res.GroupWeights = s.weights
	}
	if cfg.ComputeConfidence {
		res.Confidence = s.confidence()
	}
	return res, nil
}

// AggregateTruths performs a single truth-update pass (Step II) under
// fixed source weights. See the package-level AggregateTruths; this
// variant reuses the frozen columns, which is what makes the streaming
// processor's warm path cheap.
func (p *Prepared) AggregateTruths(weights []float64, cfg Config) *data.Table {
	cfg = cfg.withDefaults()
	cfg.PropertyGroups = nil // single-group helper
	s := newSolver(p, cfg)
	copy(s.weights[0], weights)
	s.sweep(passResolve)
	return s.truths
}

// SourceLosses computes each source's aggregated, normalized loss
// against the given truths. See the package-level SourceLosses; this
// variant reuses the frozen columns.
func (p *Prepared) SourceLosses(truths *data.Table, weights []float64, cfg Config) []float64 {
	cfg = cfg.withDefaults()
	cfg.PropertyGroups = nil // single-group helper
	s := newSolver(p, cfg)
	copy(s.weights[0], weights)
	s.truths = truths
	// Rebuild distributions for probabilistic categorical losses so
	// Deviation sees them; the argmin itself is discarded, and hard
	// losses leave nil distributions.
	c := p.cols
	for e := 0; e < c.NumEntries(); e++ {
		if c.PropKind[c.EntryProp(e)] == data.Categorical && truths.Has(e) {
			s.resolveEntry(s.seq, e)
		}
	}
	s.sweep(passScore)
	return s.groupLosses[0]
}
