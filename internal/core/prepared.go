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
// columns the solver reads. Preparing costs one pass over the claims;
// once built, a Prepared is immutable and safe for any number of
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
	// counts[k*M+m] is source k's claim count on property m. Every
	// sweep charges every claim, so these are the observation counts
	// of every sweep's losses.
	counts []int32
	// defaultGroups is the default property grouping: one group holding
	// every property.
	defaultGroups [][]int
}

// Prepare computes d's per-entry statistics and each source's claim
// count per property. The dataset must not be mutated afterwards
// (datasets built by data.Builder are immutable already).
func Prepare(d *data.Dataset) *Prepared {
	M := d.NumProps()
	p := &Prepared{
		d:        d,
		props:    make([]*data.Property, M),
		entryStd: make([]float64, d.NumEntries()),
		counts:   make([]int32, d.NumSources()*M),
	}
	all := make([]int, M)
	for m := range p.props {
		p.props[m] = d.Prop(m)
		all[m] = m
	}
	p.defaultGroups = [][]int{all}
	for e := 0; e < d.NumEntries(); e++ {
		m := d.EntryProp(e)
		if p.props[m].Type == data.Continuous {
			p.entryStd[e] = stats.Std(d.EntryFloats(e))
		}
		for _, k := range d.EntrySources(e) {
			p.counts[int(k)*M+m]++
		}
	}
	return p
}

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

	// Initialization: one truth update under uniform weights — the
	// Voting/Averaging start the paper recommends (Section 2.5,
	// "Initialization"). The pass scores the truths it chooses, so
	// iteration 1's weight update is the scheme alone.
	s.setUniformWeights()
	s.sweep(false)

	// The per-iteration appends stay within this capacity, so the
	// iteration loop itself performs no allocations.
	res := &Result{Objective: make([]float64, 0, cfg.MaxIters)}
	// Each iteration walks the claims once: Step II's pass also scores
	// the truths it chooses, leaving the losses that the objective
	// weighs and the next iteration's Step I turns into weights.
	prevObj := math.Inf(1)
	for it := 0; it < cfg.MaxIters; it++ {
		t0 := time.Now()
		s.updateWeights()
		tW := time.Now()
		changes := s.sweep(cfg.Trace != nil)
		tT := time.Now()
		obj := s.objective()
		tO := time.Now()
		res.Objective = append(res.Objective, obj)
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
				TruthWorkers:   s.workers,
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
	s.sweep(false)
	return s.truths, s.groupLosses[0]
}
