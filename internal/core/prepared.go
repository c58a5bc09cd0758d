package core

import (
	"math"
	"time"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/stats"
)

// Prepared is a dataset readied for solving: the per-entry statistics
// every run needs but no run mutates, beside the dataset whose claim
// columns the solver reads. Preparing costs one pass over the continuous
// claims; once built, a Prepared is immutable and safe for any number of
// concurrent Run and Step calls. Callers that solve the same dataset
// repeatedly — the resolve server's snapshots, benchmark sweeps —
// should Prepare once and reuse it; the package-level Run prepares on
// every call.
type Prepared struct {
	d *data.Dataset
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

// Prepare computes d's per-entry statistics. The dataset must not be
// mutated afterwards (datasets built by data.Builder are immutable
// already).
func Prepare(d *data.Dataset) *Prepared {
	p := &Prepared{
		d:        d,
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
		if p.props[d.EntryProp(e)].Type == data.Continuous {
			p.entryStd[e] = stats.Std(d.EntryFloats(e))
		}
	}
	return p
}

// Dataset returns the dataset this Prepared was built from.
func (p *Prepared) Dataset() *data.Dataset { return p.d }

// Run executes CRH over the prepared dataset. See the package-level Run
// for the semantics; this variant skips the per-call preparation.
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
	// into and get a scoring-only pass of their own.
	if cfg.InitTruths != nil {
		s.truths = cfg.InitTruths.Clone()
		s.pinKnown()
		s.sweep(0)
	} else {
		s.setUniformWeights()
		s.sweep(passResolve)
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
	work := passResolve
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

// Step runs one truth update (Step II) under fixed source weights and
// scores the truths it chooses, in one sweep over the claims: each
// entry is pinned from cfg.KnownTruths (a pinned entry has no soft
// distribution) or set to the argmin of its claims under weights, and
// its claims are charged their deviations right after. It returns the
// truths and each source's aggregated, normalized loss against them —
// the quantity Step I feeds the weight scheme. This is the sweep each of
// Run's iterations makes, so Step(res.Weights, cfg) reproduces a run's
// final truths and objective. I-CRH (Algorithm 2) scans each chunk with
// it once; PropertyGroups is ignored (one weight per source).
func (p *Prepared) Step(weights []float64, cfg Config) (*data.Table, []float64) {
	cfg = cfg.withDefaults()
	cfg.PropertyGroups = nil
	s := newSolver(p, cfg)
	copy(s.weights[0], weights)
	s.sweep(passResolve)
	return s.truths, s.groupLosses[0]
}
