package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/crhkit/crh/internal/col"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// solver carries the mutable state of one run over a frozen Prepared.
// Every buffer the iteration loop touches is allocated here, once: with
// the default losses and scheme (which implement the kernel interfaces)
// steady-state iterations perform zero allocations — a contract pinned
// by TestSolverIterationAllocFree.
type solver struct {
	prep *Prepared
	cols *col.Columns
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
	// default configuration has a single group. With an in-place scheme
	// the buffers are reused across iterations.
	weights [][]float64
	// groupOf[m] is property m's group index.
	groupOf []int

	// Kernel fast paths, detected once per run. Nil fields fall back to
	// the allocating interface methods (bit-identically).
	contKernel  loss.ContinuousKernel
	catKernel   loss.CategoricalKernel
	inPlace     reg.InPlaceScheme
	countScheme reg.CountScheme

	// dists[e] is the distribution behind entry e's current truth for
	// probabilistic categorical losses, nil when the truth has none:
	// hard losses, continuous entries, pinned truths, and truths no
	// Step II has computed yet (seeded by InitTruths). With a kernel the
	// views index one contiguous arena, entry e's slot starting at
	// (e/M)·distRow + distOff[m]; the fallback path stores whatever
	// slice Truth returns.
	needDist  bool
	dists     [][]float64
	distArena []float64
	distOff   []int
	distRow   int

	// Step I state, allocated on first use (truth-only passes never
	// need it): per-shard partial loss matrices and their merged totals,
	// flattened to [k*M+m]. partSum/partCnt hold nsh consecutive K·M
	// regions so each shard accumulates into its own slot and the merge
	// can walk them in ascending shard order.
	nsh     int
	partSum []float64
	partCnt []int32
	sumKM   []float64
	cntKM   []int32
	avgBuf  []float64
	// groupLosses/groupCounts are the per-group losses and observation
	// counts of the truths the last scoring pass charged, reused across
	// iterations.
	groupLosses [][]float64
	groupCounts [][]int
	// groups lists each property group's properties: Config's
	// PropertyGroups, or one group of every property by default.
	groups [][]int
}

// scratch holds one worker's reusable per-entry buffers: gathered
// weights, fallback value copies, median quickselect space, and the
// categorical vote tally. All are sized from the frozen columns' maxima
// (MaxObs, MaxCats), so per-entry slicing never reallocates.
type scratch struct {
	ws, vals, vbuf, wbuf, votes []float64
	cats                        []int
}

// scratchPool recycles parallel workers' scratch across regions and
// runs. It is package-level on purpose: once used, a sync.Pool stays in
// the runtime's pool registry for two more GC cycles, so a pool inside
// the solver would keep the finished solver, its Prepared and its
// Dataset reachable that long after every multi-worker run.
var scratchPool sync.Pool

func (s *solver) newScratch() *scratch {
	mo, mc := s.cols.MaxObs, s.cols.MaxCats
	return &scratch{
		ws:    make([]float64, mo),
		vals:  make([]float64, mo),
		vbuf:  make([]float64, mo),
		wbuf:  make([]float64, mo),
		votes: make([]float64, mc),
		cats:  make([]int, mo),
	}
}

// getScratch draws a pooled scratch large enough for this solver's
// columns, allocating one when the pool has none that fits.
func (s *solver) getScratch() *scratch {
	if sc, ok := scratchPool.Get().(*scratch); ok && len(sc.ws) >= s.cols.MaxObs && len(sc.votes) >= s.cols.MaxCats {
		return sc
	}
	return s.newScratch()
}

func newSolver(p *Prepared, cfg Config) *solver {
	c := p.cols
	K, M := c.Sources, c.Props
	nEntries := c.NumEntries()
	s := &solver{
		prep:    p,
		cols:    c,
		cfg:     cfg,
		workers: cfg.Workers,
		pool:    cfg.Pool,
		truths:  data.NewTableFor(p.d),
		groupOf: make([]int, M),
		dists:   make([][]float64, nEntries),
		nsh:     numShards(nEntries),
	}
	if s.workers == 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.contKernel, _ = cfg.ContinuousLoss.(loss.ContinuousKernel)
	s.catKernel, _ = cfg.CategoricalLoss.(loss.CategoricalKernel)
	s.inPlace, _ = cfg.Scheme.(reg.InPlaceScheme)
	s.countScheme, _ = cfg.Scheme.(reg.CountScheme)
	if s.catKernel != nil && s.catKernel.NeedsDist() {
		// One contiguous arena holds every categorical entry's
		// distribution, in entry order; the kernel overwrites its slot
		// in place each iteration instead of allocating a fresh slice
		// per entry.
		s.needDist = true
		s.distOff = make([]int, M)
		for m := 0; m < M; m++ {
			if c.PropKind[m] == data.Categorical {
				s.distOff[m] = s.distRow
				s.distRow += c.NumCats[m]
			}
		}
		s.distArena = make([]float64, s.distRow*c.Objects)
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

// ensureLossBufs allocates the Step I accumulation buffers on first use;
// truth-only passes (AggregateTruths) never pay for them.
func (s *solver) ensureLossBufs() {
	if s.sumKM != nil {
		return
	}
	KM := s.cols.Sources * s.cols.Props
	s.partSum = make([]float64, s.nsh*KM)
	s.partCnt = make([]int32, s.nsh*KM)
	s.sumKM = make([]float64, KM)
	s.cntKM = make([]int32, KM)
	s.avgBuf = make([]float64, KM)
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
	n := s.cols.NumEntries()
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
// observing entry e (property m), in the claim order of the frozen
// columns. Runs once per entry per pass against preallocated scratch.
//
//crh:hotpath
func (s *solver) gatherWeights(sc *scratch, e, m int) []float64 {
	srcs := s.cols.SrcsOf(e)
	gw := s.weights[s.groupOf[m]]
	ws := sc.ws[:len(srcs)]
	for j, k := range srcs {
		ws[j] = gw[k]
	}
	return ws
}

// pass selects the work one sweep over the entries does.
type pass uint8

const (
	// passResolve runs Step II: each entry's truth is pinned from
	// KnownTruths or set to the argmin of its claims under the current
	// weights.
	passResolve pass = 1 << iota
	// passScore charges every claim its deviation from its entry's
	// truth into the shard's partial loss slot — Step I's losses. In a
	// resolving pass an entry is scored right after its new truth is
	// chosen, which is what a separate loss walk would charge: an
	// entry's deviations depend only on its own claims and its truth.
	passScore
	// passCount counts the entries whose truth moved (traced runs
	// only).
	passCount
)

// sweep runs one pass over every entry, parallelized across shards
// (each entry's truth and deviations are independent). A scoring pass
// leaves the losses of the truths it charged in s.groupLosses and
// s.groupCounts; truth-only passes (AggregateTruths) never allocate the
// loss buffers. With passCount it returns the number of entries whose
// truth estimate moved; otherwise it returns 0 without comparing,
// keeping the untraced path free of the extra table reads.
func (s *solver) sweep(work pass) int {
	var perShard []int
	if work&passCount != 0 {
		perShard = make([]int, s.nsh)
	}
	if work&passScore != 0 {
		s.ensureLossBufs()
	}
	// The sequential path dispatches shards directly instead of through
	// forShards: a closure argument would escape to the heap and cost
	// one allocation per iteration, breaking the zero-steady-state pin.
	if s.effectiveWorkers() <= 1 {
		s.lastWorkers = 1
		n := s.cols.NumEntries()
		for sh := 0; sh < s.nsh; sh++ {
			lo, hi := shardBounds(n, sh, s.nsh)
			s.sweepShard(s.seq, sh, lo, hi, work, perShard)
		}
	} else {
		s.forShards(func(sc *scratch, sh, lo, hi int) {
			s.sweepShard(sc, sh, lo, hi, work, perShard)
		})
	}
	if work&passScore != 0 {
		s.mergeLosses()
	}
	var changes int
	for _, n := range perShard {
		changes += n
	}
	return changes
}

// sweepShard runs one pass over entries [lo, hi) — one shard. A scoring
// pass first zeroes the shard's partial loss slot, then charges entries
// in ascending order, each claim in the frozen columns' order.
//
//crh:hotpath
func (s *solver) sweepShard(sc *scratch, sh, lo, hi int, work pass, perShard []int) {
	c := s.cols
	var lsum []float64
	var lcnt []int32
	if work&passScore != 0 {
		KM := c.Sources * c.Props
		lsum = s.partSum[sh*KM : (sh+1)*KM]
		lcnt = s.partCnt[sh*KM : (sh+1)*KM]
		clear(lsum)
		clear(lcnt)
	}
	for e := lo; e < hi; e++ {
		if work&passResolve != 0 {
			if s.cfg.KnownTruths != nil && s.cfg.KnownTruths.Has(e) {
				v, _ := s.cfg.KnownTruths.Get(e)
				s.truths.Set(e, v)
				s.dists[e] = nil
			} else if nv, ok := s.resolveEntry(sc, e); ok {
				if work&passCount != 0 {
					t := c.PropKind[c.EntryProp(e)]
					if old, ok := s.truths.Get(e); !ok || truthChanged(t, old, nv) {
						perShard[sh]++
					}
				}
				s.truths.Set(e, nv)
			}
		}
		if work&passScore != 0 {
			if truth, ok := s.truths.Get(e); ok {
				s.scoreEntry(lsum, lcnt, e, truth)
			}
		}
	}
}

// resolveEntry performs the Step II argmin for one unpinned entry: read
// its claims straight from the frozen columns, gather the observers'
// weights, and let the configured loss pick the minimizing estimate
// (Eq 7/9). ok is false when nobody observed the entry. This is the
// truth-update inner loop — it runs once per entry per iteration, and
// //crh:hotpath holds it and everything it calls to zero steady-state
// allocations on the kernel paths.
//
//crh:hotpath
func (s *solver) resolveEntry(sc *scratch, e int) (data.Value, bool) {
	c := s.cols
	m := c.EntryProp(e)
	if c.PropKind[m] == data.Categorical {
		codes := c.Codes(e)
		if len(codes) == 0 {
			return data.Value{}, false
		}
		ws := s.gatherWeights(sc, e, m)
		if s.catKernel != nil {
			var dist []float64
			if s.needDist {
				lo := e/c.Props*s.distRow + s.distOff[m]
				hi := lo + c.NumCats[m]
				dist = s.distArena[lo:hi:hi]
				s.dists[e] = dist
			}
			return data.Cat(s.catKernel.TruthCodes(codes, ws, sc.votes, dist, s.prep.props[m])), true
		}
		cats := sc.cats[:len(codes)]
		for j, code := range codes {
			cats[j] = int(code)
		}
		t, dist := s.cfg.CategoricalLoss.Truth(cats, ws, s.prep.props[m])
		s.dists[e] = dist
		return data.Cat(t), true
	}
	vals := c.Floats(e)
	if len(vals) == 0 {
		return data.Value{}, false
	}
	ws := s.gatherWeights(sc, e, m)
	if s.contKernel != nil {
		return data.Float(s.contKernel.TruthBuf(vals, ws, sc.vbuf, sc.wbuf)), true
	}
	// Fallback losses get a scratch copy: the frozen columns are shared
	// state and must not reach code that might scribble on its input.
	vcopy := sc.vals[:len(vals)]
	copy(vcopy, vals)
	return data.Float(s.cfg.ContinuousLoss.Truth(vcopy, ws)), true
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
	c := s.cols
	M := c.Props
	m := c.EntryProp(e)
	srcs := c.SrcsOf(e)
	if c.PropKind[m] == data.Categorical {
		dist := s.dists[e]
		p := s.prep.props[m]
		codes := c.Codes(e)
		tc := int(truth.C)
		for j, k := range srcs {
			i := int(k)*M + m
			lsum[i] += s.cfg.CategoricalLoss.Deviation(tc, dist, int(codes[j]), p)
			lcnt[i]++
		}
		return
	}
	std := s.prep.entryStd[e]
	vals := c.Floats(e)
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
// observation count per group, consumed by count-aware weight schemes
// (reg.CountScheme). Both land in solver-owned buffers.
func (s *solver) mergeLosses() {
	c := s.cols
	K, M := c.Sources, c.Props
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
// property group, from the losses the last scoring pass left — those
// of the current truths. Count-aware schemes additionally receive each
// source's per-group observation count; in-place schemes write into the
// reused weight buffers.
func (s *solver) updateWeights() {
	for g, l := range s.groupLosses {
		switch {
		case s.countScheme != nil:
			s.weights[g] = s.countScheme.WeightsWithCounts(l, s.groupCounts[g])
		case s.inPlace != nil:
			s.inPlace.WeightsInto(s.weights[g], l)
		default:
			s.weights[g] = s.cfg.Scheme.Weights(l)
		}
	}
}

// objective evaluates Σ_g Σ_k w_gk · L_gk with the normalized
// per-source losses of the current truths, which the scoring pass that
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
	c := s.cols
	conf := make([]float64, c.NumEntries())
	s.forShards(func(_ *scratch, _, lo, hi int) {
		for e := lo; e < hi; e++ {
			truth, ok := s.truths.Get(e)
			if !ok {
				continue
			}
			m := c.EntryProp(e)
			categorical := c.PropKind[m] == data.Categorical
			gw := s.weights[s.groupOf[m]]
			srcs := c.SrcsOf(e)
			var support, total float64
			if categorical {
				codes := c.Codes(e)
				for j, k := range srcs {
					total += gw[k]
					if int32(codes[j]) == truth.C {
						support += gw[k]
					}
				}
			} else {
				std := stdGuardLocal(s.prep.entryStd[e])
				vals := c.Floats(e)
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
					for _, code := range c.Codes(e) {
						n++
						if int32(code) == truth.C {
							agree++
						}
					}
				} else {
					std := stdGuardLocal(s.prep.entryStd[e])
					for _, v := range c.Floats(e) {
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

// stdGuardLocal floors a spread for the confidence band, mirroring the
// loss package's normalizer guard.
func stdGuardLocal(std float64) float64 {
	if std < 1e-12 {
		return 1e-12
	}
	return std
}
