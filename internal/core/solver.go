package core

import (
	"math"
	"runtime"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
)

// solver carries the mutable state of one run over a Prepared.
// Every buffer the iteration loop touches is allocated here, once, and
// losses and schemes work in caller scratch: steady-state iterations
// perform zero allocations with every built-in loss and scheme but
// EditDistance and the loss ensemble — a contract pinned by
// TestSolverIterationAllocFree.
type solver struct {
	prep *Prepared
	d    *data.Dataset
	cfg  Config

	// workers is the worker budget the run engages: Config.Workers
	// (GOMAXPROCS for 0) clamped to the shard count, since extra
	// workers would have nothing to claim. The solver trace reports it.
	workers int
	pool    *Pool
	// scratch[slot] belongs to the worker holding that Pool.Do slot;
	// the sequential path uses scratch[0].
	scratch []scratch
	// needDist reports whether the categorical loss fills a
	// distribution for each truth it chooses (NeedsDist).
	needDist bool

	truths *data.Table
	// weights[g][k] is source k's weight for property group g; the
	// default configuration has a single group. The scheme rewrites the
	// buffers in place each iteration.
	weights [][]float64
	// groupOf[m] is property m's group index.
	groupOf []int

	// Step I state: per-shard partial deviation sums and their merged
	// totals, flattened to [k*M+m]. partSum holds nsh consecutive K·M
	// regions so each shard accumulates into its own slot and the merge
	// can walk them in ascending shard order. The matching claim counts
	// are the same on every sweep and live on the Prepared.
	nsh     int
	partSum []float64
	sumKM   []float64
	avgBuf  []float64
	// groupLosses are the per-group losses of the truths the last sweep
	// charged, reused across iterations; groupCounts are each source's
	// claim counts per group, fixed for the run.
	groupLosses [][]float64
	groupCounts [][]int
	// groups lists each property group's properties: Config's
	// PropertyGroups, or one group of every property by default.
	groups [][]int
}

// scratch holds one worker's reusable per-entry buffers: gathered
// weights, the continuous losses' working space, the deviations of the
// entry being scored, the categorical vote tally, and the distribution
// behind the truth of the categorical entry the worker is resolving,
// which that entry's scoring reads right after. All are sized from the
// dataset's extents (MaxObservers, MaxCats), so per-entry slicing never
// reallocates.
type scratch struct {
	ws, vbuf, wbuf, dev, votes, dist []float64
}

// cacheLine is a cache line's length in float64s. Each worker's scratch
// region is followed by one line of padding, so two workers never write
// the same line.
const cacheLine = 8

func newSolver(p *Prepared, cfg Config) *solver {
	c := p.d
	K, M := c.NumSources(), c.NumProps()
	nsh := numShards(c.NumEntries())
	s := &solver{
		prep:     p,
		d:        c,
		cfg:      cfg,
		workers:  cfg.Workers,
		pool:     cfg.Pool,
		needDist: cfg.CategoricalLoss.NeedsDist(),
		truths:   data.NewTableFor(p.d),
		groupOf:  make([]int, M),
		nsh:      nsh,
		partSum:  make([]float64, nsh*K*M),
		sumKM:    make([]float64, K*M),
		avgBuf:   make([]float64, K*M),
	}
	if s.workers == 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.workers = max(min(s.workers, nsh), 1)
	// The engaged workers' scratch is one slab, a region per worker.
	mo, mc := c.MaxObservers(), c.MaxCats()
	region := 4*mo + 2*mc + cacheLine
	slab := make([]float64, s.workers*region)
	s.scratch = make([]scratch, s.workers)
	for w := range s.scratch {
		b := slab[w*region:]
		cut := func(n int) []float64 {
			v := b[:n:n]
			b = b[n:]
			return v
		}
		s.scratch[w] = scratch{ws: cut(mo), vbuf: cut(mo), wbuf: cut(mo), dev: cut(mo), votes: cut(mc), dist: cut(mc)}
	}
	s.groups = cfg.PropertyGroups
	if s.groups == nil {
		s.groups = p.defaultGroups
	}
	for gi, g := range s.groups {
		for _, m := range g {
			s.groupOf[m] = gi
		}
	}
	nGroups := len(s.groups)
	s.weights = make([][]float64, nGroups)
	s.groupLosses = make([][]float64, nGroups)
	s.groupCounts = make([][]int, nGroups)
	for g, props := range s.groups {
		s.weights[g] = make([]float64, K)
		s.groupLosses[g] = make([]float64, K)
		counts := make([]int, K)
		for k := range counts {
			for _, m := range props {
				counts[k] += int(p.counts[k*M+m])
			}
		}
		s.groupCounts[g] = counts
	}
	return s
}

// setUniformWeights resets every (group, source) weight to 1.
func (s *solver) setUniformWeights() {
	for g := range s.weights {
		for k := range s.weights[g] {
			s.weights[g][k] = 1
		}
	}
}

// forShards runs fn once per shard of the entry range, in parallel up to
// the solver's worker budget. Shard boundaries depend only on the entry
// count (see numShards), and fn receives the shard index so per-shard
// partial results can be merged in shard order afterwards — the two
// properties that make every worker count produce bit-identical output.
// Shards are claimed dynamically (work stealing) which is safe precisely
// because the merge happens by shard index, not by completion order; fn
// gets the scratch of the Pool.Do slot running it.
func (s *solver) forShards(fn func(sc *scratch, sh, lo, hi int)) {
	n := s.d.NumEntries()
	s.pool.Do(s.nsh, s.workers, func(slot, sh int) {
		lo, hi := shardBounds(n, sh, s.nsh)
		fn(&s.scratch[slot], sh, lo, hi)
	})
}

// gatherWeights fills sc.ws with the current weight of each source
// observing entry e (property m), in the dataset's claim order. Runs
// once per entry per pass against preallocated scratch.
//
//crh:hotpath
func (s *solver) gatherWeights(sc *scratch, e, m int) []float64 {
	srcs := s.d.EntrySources(e)
	gw := s.weights[s.groupOf[m]]
	ws := sc.ws[:len(srcs)]
	for j, k := range srcs {
		ws[j] = gw[k]
	}
	return ws
}

// sweep runs Step II over every entry, parallelized across shards
// (each entry's truth and deviations are independent): each entry's
// truth is pinned from KnownTruths or set to the argmin of its claims
// under the current weights, and its claims are charged their
// deviations from that truth right after — what a separate loss walk
// would charge, since an entry's deviations depend only on its own
// claims and its truth. It leaves the losses of the truths it chose in
// s.groupLosses. With count it returns the number of entries whose
// truth estimate moved (traced runs only); otherwise it returns 0
// without comparing, keeping the untraced path free of the extra table
// reads.
func (s *solver) sweep(count bool) int {
	var perShard []int
	if count {
		perShard = make([]int, s.nsh)
	}
	// The sequential path dispatches shards directly instead of through
	// forShards: a closure argument would escape to the heap and cost
	// one allocation per iteration, breaking the zero-steady-state pin.
	if s.workers == 1 {
		n := s.d.NumEntries()
		for sh := 0; sh < s.nsh; sh++ {
			lo, hi := shardBounds(n, sh, s.nsh)
			s.sweepShard(&s.scratch[0], sh, lo, hi, perShard)
		}
	} else {
		s.forShards(func(sc *scratch, sh, lo, hi int) {
			s.sweepShard(sc, sh, lo, hi, perShard)
		})
	}
	s.mergeLosses()
	var changes int
	for _, n := range perShard {
		changes += n
	}
	return changes
}

// sweepShard runs one pass over entries [lo, hi) — one shard. It first
// zeroes the shard's partial deviation sums, then resolves and charges
// entries in ascending order, each claim in the dataset's claim order.
// A non-nil perShard receives the shard's count of moved truths.
//
//crh:hotpath
func (s *solver) sweepShard(sc *scratch, sh, lo, hi int, perShard []int) {
	c := s.d
	KM := c.NumSources() * c.NumProps()
	lsum := s.partSum[sh*KM : (sh+1)*KM]
	clear(lsum)
	for e := lo; e < hi; e++ {
		var truth data.Value
		var dist []float64
		if s.cfg.KnownTruths != nil && s.cfg.KnownTruths.Has(e) {
			// A pinned truth is a hard label: it has no distribution.
			truth, _ = s.cfg.KnownTruths.Get(e)
		} else if nv, d, ok := s.resolveEntry(sc, e); ok {
			if perShard != nil {
				t := s.prep.props[c.EntryProp(e)].Type
				if old, ok := s.truths.Get(e); !ok || truthChanged(t, old, nv) {
					perShard[sh]++
				}
			}
			truth, dist = nv, d
		} else {
			continue
		}
		s.truths.Set(e, truth)
		s.scoreEntry(sc, lsum, e, truth, dist)
	}
}

// resolveEntry performs the Step II argmin for one unpinned entry: read
// its claims straight from the dataset's columns, gather the observers'
// weights, and let the configured loss pick the minimizing estimate
// (Eq 7/9) in the worker's scratch. The columns are shared state; the
// loss contract makes them read-only, so they are passed uncopied. dist
// is the distribution a NeedsDist loss filled for a categorical truth,
// a view of the worker's scratch valid until its next entry; nil
// otherwise. ok is false when nobody observed the entry. This is the
// truth-update inner loop — it runs once per entry per iteration, and
// //crh:hotpath holds it and everything it calls to zero steady-state
// allocations.
//
//crh:hotpath
func (s *solver) resolveEntry(sc *scratch, e int) (truth data.Value, dist []float64, ok bool) {
	c := s.d
	m := c.EntryProp(e)
	p := s.prep.props[m]
	if p.Type == data.Categorical {
		codes := c.EntryCodes(e)
		if len(codes) == 0 {
			return data.Value{}, nil, false
		}
		ws := s.gatherWeights(sc, e, m)
		if s.needDist {
			dist = sc.dist[:p.NumCats()]
		}
		return data.Cat(s.cfg.CategoricalLoss.Truth(codes, ws, sc.votes, dist, p)), dist, true
	}
	vals := c.EntryFloats(e)
	if len(vals) == 0 {
		return data.Value{}, nil, false
	}
	ws := s.gatherWeights(sc, e, m)
	return data.Float(s.cfg.ContinuousLoss.Truth(vals, ws, sc.vbuf, sc.wbuf)), nil, true
}

// truthChanged reports whether a truth update moved an entry's estimate:
// a different label for categorical entries, a shift beyond 1e-12 for
// continuous ones (exact float equality would misreport rounding noise).
func truthChanged(t data.Type, old, nv data.Value) bool {
	if t == data.Categorical {
		return old.C != nv.C
	}
	return math.Abs(old.F-nv.F) > 1e-12
}

// scoreEntry charges each claim on entry e its deviation from truth
// (Eq 5/6) into one shard's partial deviation sums (flattened
// [k*M+m]); dist is the distribution behind a categorical truth, nil
// when it has none. The loss scores the whole entry in one call, into
// the worker's dev scratch, and the deviations are added in claim
// order. It is Step I's per-entry unit and runs once per entry per
// iteration inside the Step II pass — //crh:hotpath holds it and
// everything it calls to zero steady-state allocations.
//
//crh:hotpath
func (s *solver) scoreEntry(sc *scratch, lsum []float64, e int, truth data.Value, dist []float64) {
	c := s.d
	M := c.NumProps()
	m := c.EntryProp(e)
	srcs := c.EntrySources(e)
	dev := sc.dev[:len(srcs)]
	if p := s.prep.props[m]; p.Type == data.Categorical {
		s.cfg.CategoricalLoss.Deviations(dev, c.EntryCodes(e), int(truth.C), dist, p)
	} else {
		s.cfg.ContinuousLoss.Deviations(dev, c.EntryFloats(e), truth.F, s.prep.entryStd[e])
	}
	for j, k := range srcs {
		lsum[int(k)*M+m] += dev[j]
	}
}

// mergeLosses folds the shards' partial deviation sums in ascending
// shard order — the same additions for every worker budget — and turns
// the totals into the per-group per-source losses feeding Step I: each
// source's deviations averaged per observation within each property
// (unless disabled), rescaled per property so different loss scales
// are comparable (unless disabled), then averaged across the properties
// the source observed within each group. The observation counts are
// the Prepared's: every sweep charges every claim. The losses land in
// solver-owned buffers.
func (s *solver) mergeLosses() {
	KM := s.d.NumSources() * s.d.NumProps()
	clear(s.sumKM)
	for sh := 0; sh < s.nsh; sh++ {
		base := sh * KM
		for i := 0; i < KM; i++ {
			s.sumKM[i] += s.partSum[base+i]
		}
	}
	for gi, g := range s.groups {
		combineLosses(s.groupLosses[gi], s.sumKM, s.prep.counts, s.d.NumProps(), g, s.avgBuf, &s.cfg)
	}
}

// combineLosses collapses merged deviation sums and observation counts,
// flattened to [k*M+m] over M properties, into per-source losses over
// the property subset props, writing dst (length K): count
// normalization first, then per-property max rescaling, then each
// source's average over the properties it observed. avg is scratch of
// length ≥ K·len(props). It is the one combine routine: the solver runs
// it per property group and the MapReduce driver through CombineLosses.
func combineLosses(dst, sum []float64, cnt []int32, M int, props []int, avg []float64, cfg *Config) {
	K := len(dst)
	P := len(props)
	avg = avg[:K*P]
	for k := 0; k < K; k++ {
		for j, m := range props {
			a := 0.0
			if n := cnt[k*M+m]; n > 0 {
				if cfg.DisableCountNormalization {
					a = sum[k*M+m]
				} else {
					a = sum[k*M+m] / float64(n)
				}
			}
			avg[k*P+j] = a
		}
	}
	if !cfg.DisablePropNormalization {
		for j := 0; j < P; j++ {
			var max float64
			for k := 0; k < K; k++ {
				if avg[k*P+j] > max {
					max = avg[k*P+j]
				}
			}
			if max > 0 {
				for k := 0; k < K; k++ {
					avg[k*P+j] /= max
				}
			}
		}
	}
	for k := 0; k < K; k++ {
		var total float64
		var nprops int
		for j, m := range props {
			if cnt[k*M+m] > 0 {
				total += avg[k*P+j]
				nprops++
			}
		}
		if nprops > 0 && !cfg.DisableCountNormalization {
			total /= float64(nprops)
		}
		dst[k] = total
	}
}

// updateWeights performs Step I under the configured scheme, once per
// property group, from the losses the last sweep left — those of the
// current truths — and the sources' claim counts, writing into the
// reused weight buffers.
func (s *solver) updateWeights() {
	for g, l := range s.groupLosses {
		s.cfg.Scheme.Weights(s.weights[g], l, s.groupCounts[g])
	}
}

// objective evaluates Σ_g Σ_k w_gk · L_gk with the normalized
// per-source losses of the current truths, which the sweep that
// chose them left behind — the quantity whose stabilization we use as
// the convergence criterion.
func (s *solver) objective() float64 {
	var f float64
	for g, gl := range s.groupLosses {
		for k, l := range gl {
			f += s.weights[g][k] * l
		}
	}
	return f
}

// confidence computes each resolved entry's weighted support: the share
// of the observers' total weight backing the chosen truth (categorical:
// exact agreement; continuous: within one entry-spread). A unanimous
// entry scores 1; an entry carried by a narrow weighted majority scores
// near the majority's share.
func (s *solver) confidence() []float64 {
	c := s.d
	conf := make([]float64, c.NumEntries())
	s.forShards(func(_ *scratch, _, lo, hi int) {
		for e := lo; e < hi; e++ {
			truth, ok := s.truths.Get(e)
			if !ok {
				continue
			}
			m := c.EntryProp(e)
			categorical := s.prep.props[m].Type == data.Categorical
			gw := s.weights[s.groupOf[m]]
			srcs := c.EntrySources(e)
			var support, total float64
			if categorical {
				codes := c.EntryCodes(e)
				for j, k := range srcs {
					total += gw[k]
					if int32(codes[j]) == truth.C {
						support += gw[k]
					}
				}
			} else {
				std := loss.StdGuard(s.prep.entryStd[e])
				vals := c.EntryFloats(e)
				for j, k := range srcs {
					total += gw[k]
					if math.Abs(vals[j]-truth.F) <= std {
						support += gw[k]
					}
				}
			}
			if total > 0 {
				conf[e] = support / total
			} else if len(srcs) > 0 {
				// All observers carry zero weight: fall back to the
				// unweighted share.
				var n, agree float64
				if categorical {
					for _, code := range c.EntryCodes(e) {
						n++
						if int32(code) == truth.C {
							agree++
						}
					}
				} else {
					std := loss.StdGuard(s.prep.entryStd[e])
					for _, v := range c.EntryFloats(e) {
						n++
						if math.Abs(v-truth.F) <= std {
							agree++
						}
					}
				}
				conf[e] = agree / n
			}
		}
	})
	return conf
}
