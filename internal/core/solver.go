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

	// dists[e] is the per-entry category distribution for probabilistic
	// categorical losses (nil entries for hard losses / continuous /
	// pinned truths). With a kernel the views index one contiguous
	// arena; the fallback path stores whatever slice Truth returns.
	needDist  bool
	dists     [][]float64
	distArena []float64

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
	// groupLosses/groupCounts are the per-group outputs of sourceLosses,
	// reused across iterations.
	groupLosses [][]float64
	groupCounts [][]int
	// allProps is the identity property list, the default group.
	allProps []int
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
		// distribution; the kernel overwrites its view in place each
		// iteration instead of allocating a fresh slice per entry.
		s.needDist = true
		var total int
		for m := 0; m < M; m++ {
			if c.PropKind[m] == data.Categorical {
				total += c.NumCats[m] * c.Objects
			}
		}
		s.distArena = make([]float64, total)
		off := 0
		for e := 0; e < nEntries; e++ {
			m := c.EntryProp(e)
			if c.PropKind[m] == data.Categorical {
				nc := c.NumCats[m]
				s.dists[e] = s.distArena[off : off+nc : off+nc]
				off += nc
			}
		}
	}
	nGroups := 1
	if cfg.PropertyGroups != nil {
		nGroups = len(cfg.PropertyGroups)
		for gi, g := range cfg.PropertyGroups {
			for _, m := range g {
				s.groupOf[m] = gi
			}
		}
	}
	s.weights = make([][]float64, nGroups)
	s.groupLosses = make([][]float64, nGroups)
	s.groupCounts = make([][]int, nGroups)
	for g := range s.weights {
		s.weights[g] = make([]float64, K)
		s.groupLosses[g] = make([]float64, K)
		s.groupCounts[g] = make([]int, K)
	}
	s.allProps = make([]int, M)
	for m := range s.allProps {
		s.allProps[m] = m
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

// updateTruths performs Step II: per-entry argmin under current weights,
// parallelized across entries (each entry's truth is independent).
// Entries pinned by KnownTruths are left untouched.
//
// When countChanges is set (only while a Trace is installed) it returns
// the number of entries whose truth estimate moved this pass; otherwise
// it returns 0 without comparing, keeping the untraced path free of the
// extra table reads.
func (s *solver) updateTruths(countChanges bool) int {
	var perShard []int
	if countChanges {
		perShard = make([]int, s.nsh)
	}
	// The sequential path dispatches shards directly instead of through
	// forShards: a closure argument would escape to the heap and cost
	// one allocation per iteration, breaking the zero-steady-state pin.
	if s.effectiveWorkers() <= 1 {
		s.lastWorkers = 1
		n := s.cols.NumEntries()
		for sh := 0; sh < s.nsh; sh++ {
			lo, hi := shardBounds(n, sh, s.nsh)
			s.truthShard(s.seq, sh, lo, hi, countChanges, perShard)
		}
	} else {
		s.forShards(func(sc *scratch, sh, lo, hi int) {
			s.truthShard(sc, sh, lo, hi, countChanges, perShard)
		})
	}
	var changes int
	for _, n := range perShard {
		changes += n
	}
	return changes
}

// truthShard resolves entries [lo, hi) — one shard of a Step II pass.
//
//crh:hotpath
func (s *solver) truthShard(sc *scratch, sh, lo, hi int, countChanges bool, perShard []int) {
	c := s.cols
	for e := lo; e < hi; e++ {
		if s.cfg.KnownTruths != nil && s.cfg.KnownTruths.Has(e) {
			v, _ := s.cfg.KnownTruths.Get(e)
			s.truths.Set(e, v)
			s.dists[e] = nil
			continue
		}
		nv, ok := s.resolveEntry(sc, e)
		if !ok {
			continue
		}
		if countChanges {
			t := c.PropKind[c.EntryProp(e)]
			if old, ok := s.truths.Get(e); !ok || truthChanged(t, old, nv) {
				perShard[sh]++
			}
		}
		s.truths.Set(e, nv)
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
				dist = s.dists[e]
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

// accumulateShard folds entries [lo, hi) into one shard's partial loss
// matrix (flattened [k*M+m]): each source's deviation from the current
// truth of every entry it observed (Eq 5/6). It is the per-shard unit of
// Step I's deviation accumulation, shared by sourceLosses' sequential
// and parallel paths, and the weight-update inner loop — //crh:hotpath
// holds it and everything it calls to zero steady-state allocations.
//
//crh:hotpath
func (s *solver) accumulateShard(lsum []float64, lcnt []int32, lo, hi int) {
	c := s.cols
	M := c.Props
	for e := lo; e < hi; e++ {
		truth, ok := s.truths.Get(e)
		if !ok {
			continue
		}
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
		} else {
			std := s.prep.entryStd[e]
			vals := c.Floats(e)
			for j, k := range srcs {
				i := int(k)*M + m
				lsum[i] += s.cfg.ContinuousLoss.Deviation(truth.F, vals[j], std)
				lcnt[i]++
			}
		}
	}
}

// sourceLosses computes the per-group per-source losses feeding Step I:
// each source's deviation from the current truths, averaged per
// observation within each property (unless disabled), rescaled per
// property so different loss scales are comparable (unless disabled),
// then averaged across the properties the source observed within each
// group. The second result is each source's observation count per group,
// consumed by count-aware weight schemes (reg.CountScheme). Both results
// are written into solver-owned buffers reused across iterations.
func (s *solver) sourceLosses() ([][]float64, [][]int) {
	s.ensureLossBufs()
	c := s.cols
	K, M := c.Sources, c.Props
	KM := K * M
	clear(s.sumKM)
	clear(s.cntKM)

	// Both paths compute one partial matrix per shard and merge partials
	// in ascending shard order. Shard boundaries depend only on the entry
	// count, so the summation order — and therefore every output bit —
	// is identical for any worker budget, pool, or scheduling.
	n := c.NumEntries()
	nsh := s.nsh
	if s.effectiveWorkers() <= 1 {
		s.lastWorkers = 1
		for sh := 0; sh < nsh; sh++ {
			lsum := s.partSum[sh*KM : (sh+1)*KM]
			lcnt := s.partCnt[sh*KM : (sh+1)*KM]
			clear(lsum)
			clear(lcnt)
			lo, hi := shardBounds(n, sh, nsh)
			s.accumulateShard(lsum, lcnt, lo, hi)
		}
	} else {
		s.forShards(func(_ *scratch, sh, lo, hi int) {
			lsum := s.partSum[sh*KM : (sh+1)*KM]
			lcnt := s.partCnt[sh*KM : (sh+1)*KM]
			clear(lsum)
			clear(lcnt)
			s.accumulateShard(lsum, lcnt, lo, hi)
		})
	}
	for sh := 0; sh < nsh; sh++ {
		base := sh * KM
		for i := 0; i < KM; i++ {
			s.sumKM[i] += s.partSum[base+i]
		}
		for i := 0; i < KM; i++ {
			s.cntKM[i] += s.partCnt[base+i]
		}
	}

	groups := s.cfg.PropertyGroups
	if groups == nil {
		counts := s.groupCounts[0]
		for k := 0; k < K; k++ {
			t := 0
			for m := 0; m < M; m++ {
				t += int(s.cntKM[k*M+m])
			}
			counts[k] = t
		}
		s.combineInto(s.groupLosses[0], s.allProps)
		return s.groupLosses, s.groupCounts
	}
	// Per group: combine only the group's property columns.
	for gi, g := range groups {
		counts := s.groupCounts[gi]
		for k := 0; k < K; k++ {
			t := 0
			for _, m := range g {
				t += int(s.cntKM[k*M+m])
			}
			counts[k] = t
		}
		s.combineInto(s.groupLosses[gi], g)
	}
	return s.groupLosses, s.groupCounts
}

// combineInto collapses the merged deviation sums of the given property
// subset into per-source losses, writing them to dst (length K). It is
// the flat-column mirror of CombineLossMatrix and must stay arithmetic-
// for-arithmetic identical to it: count normalization first, then
// per-property max rescaling, then the per-source average over observed
// properties.
func (s *solver) combineInto(dst []float64, props []int) {
	K, M := s.cols.Sources, s.cols.Props
	P := len(props)
	avg := s.avgBuf[:K*P]
	for k := 0; k < K; k++ {
		for j, m := range props {
			a := 0.0
			if cnt := s.cntKM[k*M+m]; cnt > 0 {
				if s.cfg.DisableCountNormalization {
					a = s.sumKM[k*M+m]
				} else {
					a = s.sumKM[k*M+m] / float64(cnt)
				}
			}
			avg[k*P+j] = a
		}
	}
	if !s.cfg.DisablePropNormalization {
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
			if s.cntKM[k*M+m] > 0 {
				total += avg[k*P+j]
				nprops++
			}
		}
		if nprops > 0 && !s.cfg.DisableCountNormalization {
			total /= float64(nprops)
		}
		dst[k] = total
	}
}

// updateWeights performs Step I under the configured scheme, once per
// property group. Count-aware schemes additionally receive each source's
// per-group observation count; in-place schemes write into the reused
// weight buffers.
func (s *solver) updateWeights() {
	losses, counts := s.sourceLosses()
	for g, l := range losses {
		switch {
		case s.countScheme != nil:
			s.weights[g] = s.countScheme.WeightsWithCounts(l, counts[g])
		case s.inPlace != nil:
			s.inPlace.WeightsInto(s.weights[g], l)
		default:
			s.weights[g] = s.cfg.Scheme.Weights(l)
		}
	}
}

// objective evaluates Σ_g Σ_k w_gk · L_gk with the solver's normalized
// per-source losses — the quantity whose stabilization we use as the
// convergence criterion.
func (s *solver) objective() float64 {
	losses, _ := s.sourceLosses()
	var f float64
	for g, gl := range losses {
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
