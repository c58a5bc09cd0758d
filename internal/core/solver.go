package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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

	workers int
	pool    *Pool
	// seq is the sequential path's scratch. It is solver-owned rather
	// than drawn from scratchPool, because a pooled entry can be
	// reclaimed by the GC mid-run, and the Workers=1 path must stay
	// deterministic in allocation behaviour too.
	seq *scratch
	// lastWorkers records the worker budget engaged by the most recent
	// parallel region — the per-phase count the solver trace reports.
	lastWorkers int

	truths *data.Table
	// weights[g][k] is source k's weight for property group g; the
	// default configuration has a single group. The scheme rewrites the
	// buffers in place each iteration.
	weights [][]float64
	// groupOf[m] is property m's group index.
	groupOf []int

	// dists[e] is the distribution behind entry e's current truth for
	// categorical losses whose NeedsDist reports true, nil when the
	// truth has none: hard losses, continuous entries, pinned truths,
	// and truths no Step II has computed yet (seeded by InitTruths).
	// The views index one contiguous arena, entry e's slot starting at
	// (e/M)·distRow + distOff[m].
	needDist  bool
	dists     [][]float64
	distArena []float64
	distOff   []int
	distRow   int

	// Step I state: per-shard partial loss matrices and their merged
	// totals, flattened to [k*M+m]. partSum/partCnt hold nsh consecutive
	// K·M regions so each shard accumulates into its own slot and the
	// merge can walk them in ascending shard order.
	nsh     int
	partSum []float64
	partCnt []int32
	sumKM   []float64
	cntKM   []int32
	avgBuf  []float64
	// groupLosses/groupCounts are the per-group losses and observation
	// counts of the truths the last sweep charged, reused across
	// iterations.
	groupLosses [][]float64
	groupCounts [][]int
	// groups lists each property group's properties: Config's
	// PropertyGroups, or one group of every property by default.
	groups [][]int
}

// scratch holds one worker's reusable per-entry buffers: gathered
// weights, the continuous losses' working space, and the categorical
// vote tally. All are sized from the dataset's extents (MaxObservers,
// MaxCats), so per-entry slicing never reallocates.
type scratch struct {
	ws, vbuf, wbuf, votes []float64
}

// scratchPool recycles parallel workers' scratch across regions and
// runs. It is package-level on purpose: once used, a sync.Pool stays in
// the runtime's pool registry for two more GC cycles, so a pool inside
// the solver would keep the finished solver, its Prepared and its
// Dataset reachable that long after every multi-worker run.
var scratchPool sync.Pool

func (s *solver) newScratch() *scratch {
	mo, mc := s.d.MaxObservers(), s.d.MaxCats()
	return &scratch{
		ws:    make([]float64, mo),
		vbuf:  make([]float64, mo),
		wbuf:  make([]float64, mo),
		votes: make([]float64, mc),
	}
}

// getScratch draws a pooled scratch large enough for this solver's
// dataset, allocating one when the pool has none that fits.
func (s *solver) getScratch() *scratch {
	if sc, ok := scratchPool.Get().(*scratch); ok && len(sc.ws) >= s.d.MaxObservers() && len(sc.votes) >= s.d.MaxCats() {
		return sc
	}
	return s.newScratch()
}

func newSolver(p *Prepared, cfg Config) *solver {
	c := p.d
	K, M := c.NumSources(), c.NumProps()
	nEntries := c.NumEntries()
	nsh := numShards(nEntries)
	s := &solver{
		prep:    p,
		d:       c,
		cfg:     cfg,
		workers: cfg.Workers,
		pool:    cfg.Pool,
		truths:  data.NewTableFor(p.d),
		groupOf: make([]int, M),
		dists:   make([][]float64, nEntries),
		nsh:     nsh,
		partSum: make([]float64, nsh*K*M),
		partCnt: make([]int32, nsh*K*M),
		sumKM:   make([]float64, K*M),
		cntKM:   make([]int32, K*M),
		avgBuf:  make([]float64, K*M),
	}
	if s.workers == 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CategoricalLoss.NeedsDist() {
		// One contiguous arena holds every categorical entry's
		// distribution, in entry order; the loss overwrites its slot
		// in place each iteration instead of allocating a fresh slice
		// per entry.
		s.needDist = true
		s.distOff = make([]int, M)
		for m := 0; m < M; m++ {
			if p.props[m].Type == data.Categorical {
				s.distOff[m] = s.distRow
				s.distRow += p.props[m].NumCats()
			}
		}
		s.distArena = make([]float64, s.distRow*c.NumObjects())
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
	for g := range s.weights {
		s.weights[g] = make([]float64, K)
		s.groupLosses[g] = make([]float64, K)
		s.groupCounts[g] = make([]int, K)
	}
	s.seq = s.newScratch()
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

// pinKnown overwrites entries whose truths are supplied (semi-supervised
// operation). Pinned entries still contribute to source losses.
func (s *solver) pinKnown() {
	if s.cfg.KnownTruths == nil {
		return
	}
	s.cfg.KnownTruths.ForEach(func(e int, v data.Value) {
		s.truths.Set(e, v)
		// Hard truths have no soft distribution; probabilistic losses
		// degrade to 0-1 behaviour on pinned entries.
		s.dists[e] = nil
	})
}

// effectiveWorkers returns the worker budget actually engaged for this
// dataset: the configured budget clamped to the shard count (extra
// workers would have nothing to claim).
func (s *solver) effectiveWorkers() int {
	w := s.workers
	if w > s.nsh {
		w = s.nsh
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forShards runs fn once per shard of the entry range, in parallel up to
// the solver's worker budget. Shard boundaries depend only on the entry
// count (see numShards), and fn receives the shard index so per-shard
// partial results can be merged in shard order afterwards — the two
// properties that make every worker count produce bit-identical output.
// Shards are claimed dynamically (work stealing) which is safe precisely
// because the merge happens by shard index, not by completion order.
func (s *solver) forShards(fn func(sc *scratch, sh, lo, hi int)) {
	n := s.d.NumEntries()
	nsh := s.nsh
	w := s.effectiveWorkers()
	s.lastWorkers = w
	if w <= 1 {
		for sh := 0; sh < nsh; sh++ {
			lo, hi := shardBounds(n, sh, nsh)
			fn(s.seq, sh, lo, hi)
		}
		return
	}
	task := func(sh int) {
		sc := s.getScratch()
		lo, hi := shardBounds(n, sh, nsh)
		fn(sc, sh, lo, hi)
		scratchPool.Put(sc)
	}
	if s.pool != nil {
		s.pool.Do(nsh, w, task)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sh := int(next.Add(1) - 1)
				if sh >= nsh {
					return
				}
				task(sh)
			}
		}()
	}
	wg.Wait()
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

// pass selects the work one sweep over the entries does. Every sweep
// scores: it charges each claim its deviation from its entry's truth
// into the shard's partial loss slot — Step I's losses.
type pass uint8

const (
	// passResolve runs Step II before scoring: each entry's truth is
	// pinned from KnownTruths or set to the argmin of its claims under
	// the current weights. An entry is scored right after its new truth
	// is chosen, which is what a separate loss walk would charge: an
	// entry's deviations depend only on its own claims and its truth.
	passResolve pass = 1 << iota
	// passCount counts the entries whose truth moved (traced runs
	// only).
	passCount
)

// sweep runs one pass over every entry, parallelized across shards
// (each entry's truth and deviations are independent), and leaves the
// losses of the truths it charged in s.groupLosses and s.groupCounts.
// With passCount it returns the number of entries whose truth estimate
// moved; otherwise it returns 0 without comparing, keeping the untraced
// path free of the extra table reads.
func (s *solver) sweep(work pass) int {
	var perShard []int
	if work&passCount != 0 {
		perShard = make([]int, s.nsh)
	}
	// The sequential path dispatches shards directly instead of through
	// forShards: a closure argument would escape to the heap and cost
	// one allocation per iteration, breaking the zero-steady-state pin.
	if s.effectiveWorkers() <= 1 {
		s.lastWorkers = 1
		n := s.d.NumEntries()
		for sh := 0; sh < s.nsh; sh++ {
			lo, hi := shardBounds(n, sh, s.nsh)
			s.sweepShard(s.seq, sh, lo, hi, work, perShard)
		}
	} else {
		s.forShards(func(sc *scratch, sh, lo, hi int) {
			s.sweepShard(sc, sh, lo, hi, work, perShard)
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
// zeroes the shard's partial loss slot, then charges entries in
// ascending order, each claim in the dataset's claim order.
//
//crh:hotpath
func (s *solver) sweepShard(sc *scratch, sh, lo, hi int, work pass, perShard []int) {
	c := s.d
	KM := c.NumSources() * c.NumProps()
	lsum := s.partSum[sh*KM : (sh+1)*KM]
	lcnt := s.partCnt[sh*KM : (sh+1)*KM]
	clear(lsum)
	clear(lcnt)
	for e := lo; e < hi; e++ {
		if work&passResolve != 0 {
			if s.cfg.KnownTruths != nil && s.cfg.KnownTruths.Has(e) {
				v, _ := s.cfg.KnownTruths.Get(e)
				s.truths.Set(e, v)
				s.dists[e] = nil
			} else if nv, ok := s.resolveEntry(sc, e); ok {
				if work&passCount != 0 {
					t := s.prep.props[c.EntryProp(e)].Type
					if old, ok := s.truths.Get(e); !ok || truthChanged(t, old, nv) {
						perShard[sh]++
					}
				}
				s.truths.Set(e, nv)
			}
		}
		if truth, ok := s.truths.Get(e); ok {
			s.scoreEntry(lsum, lcnt, e, truth)
		}
	}
}

// resolveEntry performs the Step II argmin for one unpinned entry: read
// its claims straight from the dataset's columns, gather the observers'
// weights, and let the configured loss pick the minimizing estimate
// (Eq 7/9) in the worker's scratch. The columns are shared state; the
// loss contract makes them read-only, so they are passed uncopied. ok
// is false when nobody observed the entry. This is the truth-update
// inner loop — it runs once per entry per iteration, and //crh:hotpath
// holds it and everything it calls to zero steady-state allocations.
//
//crh:hotpath
func (s *solver) resolveEntry(sc *scratch, e int) (data.Value, bool) {
	c := s.d
	m := c.EntryProp(e)
	p := s.prep.props[m]
	if p.Type == data.Categorical {
		codes := c.EntryCodes(e)
		if len(codes) == 0 {
			return data.Value{}, false
		}
		ws := s.gatherWeights(sc, e, m)
		var dist []float64
		if s.needDist {
			lo := e/c.NumProps()*s.distRow + s.distOff[m]
			hi := lo + p.NumCats()
			dist = s.distArena[lo:hi:hi]
			s.dists[e] = dist
		}
		return data.Cat(s.cfg.CategoricalLoss.Truth(codes, ws, sc.votes, dist, p)), true
	}
	vals := c.EntryFloats(e)
	if len(vals) == 0 {
		return data.Value{}, false
	}
	ws := s.gatherWeights(sc, e, m)
	return data.Float(s.cfg.ContinuousLoss.Truth(vals, ws, sc.vbuf, sc.wbuf)), true
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
// (Eq 5/6) into one shard's partial loss matrix (flattened [k*M+m]).
// It is Step I's per-entry unit and runs once per entry per iteration
// inside the Step II pass — //crh:hotpath holds it and everything it
// calls to zero steady-state allocations.
//
//crh:hotpath
func (s *solver) scoreEntry(lsum []float64, lcnt []int32, e int, truth data.Value) {
	c := s.d
	M := c.NumProps()
	m := c.EntryProp(e)
	srcs := c.EntrySources(e)
	p := s.prep.props[m]
	if p.Type == data.Categorical {
		dist := s.dists[e]
		codes := c.EntryCodes(e)
		tc := int(truth.C)
		for j, k := range srcs {
			i := int(k)*M + m
			lsum[i] += s.cfg.CategoricalLoss.Deviation(tc, dist, int(codes[j]), p)
			lcnt[i]++
		}
		return
	}
	std := s.prep.entryStd[e]
	vals := c.EntryFloats(e)
	for j, k := range srcs {
		i := int(k)*M + m
		lsum[i] += s.cfg.ContinuousLoss.Deviation(truth.F, vals[j], std)
		lcnt[i]++
	}
}

// mergeLosses folds the shards' partial loss matrices in ascending
// shard order — the same additions for every worker budget — and turns
// the totals into the per-group per-source losses feeding Step I: each
// source's deviations averaged per observation within each property
// (unless disabled), rescaled per property so different loss scales
// are comparable (unless disabled), then averaged across the properties
// the source observed within each group. It also records each source's
// observation count per group, which the weight scheme receives (CATD
// consumes it). Both land in solver-owned buffers.
func (s *solver) mergeLosses() {
	K, M := s.d.NumSources(), s.d.NumProps()
	KM := K * M
	clear(s.sumKM)
	clear(s.cntKM)
	for sh := 0; sh < s.nsh; sh++ {
		base := sh * KM
		for i := 0; i < KM; i++ {
			s.sumKM[i] += s.partSum[base+i]
		}
		for i := 0; i < KM; i++ {
			s.cntKM[i] += s.partCnt[base+i]
		}
	}
	for gi, g := range s.groups {
		counts := s.groupCounts[gi]
		for k := 0; k < K; k++ {
			t := 0
			for _, m := range g {
				t += int(s.cntKM[k*M+m])
			}
			counts[k] = t
		}
		combineLosses(s.groupLosses[gi], s.sumKM, s.cntKM, M, g, s.avgBuf, &s.cfg)
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
// property group, from the losses and observation counts the last
// sweep left — those of the current truths — writing into the
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
