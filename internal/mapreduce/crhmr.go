package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
	"github.com/crhkit/crh/internal/stats"
)

// Tuple is the parallel CRH input format of Section 2.7.1: "a tuple of
// three elements: the ID of the entry (eID), the information from a
// particular source about this entry (v), and the ID of this particular
// source (sID)".
type Tuple struct {
	EID int32
	SID int32
	V   data.Value
}

// Tuples flattens a dataset into the tuple stream parallel CRH consumes.
func Tuples(d *data.Dataset) []Record {
	recs := make([]Record, 0, d.NumObservations())
	for e := 0; e < d.NumEntries(); e++ {
		d.ForEntry(e, func(k int, v data.Value) {
			recs = append(recs, Tuple{EID: int32(e), SID: int32(k), V: v})
		})
	}
	return recs
}

// ParallelConfig controls a parallel CRH fusion.
type ParallelConfig struct {
	// Core supplies the loss functions, weight scheme, normalization
	// flags and iteration bounds shared with serial CRH. Categorical
	// losses whose NeedsDist reports true (probabilistic ones) are not
	// supported in the MapReduce formulation (their per-entry
	// distributions do not fit the per-tuple mapper); the paper's
	// defaults (0-1 loss, weighted median) are.
	Core core.Config
	// Mappers and Reducers size the two jobs' task pools. When zero they
	// follow Core.Workers (the solver-wide worker budget), falling back
	// to the engine defaults (GOMAXPROCS mappers, 4 reducers) when that
	// is unset too, so one knob sizes the whole per-partition solve.
	Mappers, Reducers int
	// Model estimates what the executed job sequence would cost on a
	// real cluster; nil selects DefaultCluster.
	Model *ClusterModel
	// DisableEarlyStop forces exactly Core.MaxIters iterations even if
	// the truths reach a fixed point sooner — useful when comparing
	// runtimes across workloads, where a variable job count would
	// confound the measurement.
	DisableEarlyStop bool
}

// ParallelResult is the outcome of a parallel fusion.
type ParallelResult struct {
	Truths     *data.Table
	Weights    []float64
	Iterations int
	Converged  bool
	// Jobs holds the engine stats of every executed MapReduce job, in
	// order (truth, weight, truth, weight, ...).
	Jobs []*Stats
	// WallTime is the measured in-process execution time;
	// SimulatedTime is the cluster model's estimate for the same job
	// sequence.
	WallTime      time.Duration
	SimulatedTime time.Duration
}

// truthOut is the value the truth-computation reducer writes to the shared
// truth file: the entry's truth plus the spread needed to normalize
// continuous deviations in the following weight job.
type truthOut struct {
	v   data.Value
	std float64
}

// errPair is the partial error the weight-assignment mapper emits and the
// combiner/reducer aggregate.
type errPair struct {
	sum   float64
	count int
}

// RunParallel executes CRH as iterated MapReduce jobs over d's tuples
// (Section 2.7): per iteration one truth-computation job keyed by entry ID
// and one weight-assignment job keyed by source ID (with a combiner),
// coordinated by a wrapper that maintains the shared weight and truth
// state (the "external files" of Sections 2.7.2-2.7.3) until the truths
// stop changing or Core.MaxIters is reached.
//
// For the paper's default losses the fusion is step-for-step equivalent to
// the serial solver and produces identical truths; the weight scheme
// receives each source's observation count, as the serial solver's does.
func RunParallel(d *data.Dataset, cfg ParallelConfig) (*ParallelResult, error) {
	if d.NumSources() == 0 || d.NumEntries() == 0 {
		return nil, core.ErrEmptyDataset
	}
	ccfg := cfg.Core
	if ccfg.ContinuousLoss == nil {
		ccfg.ContinuousLoss = loss.NormalizedAbsolute{}
	}
	if ccfg.CategoricalLoss == nil {
		ccfg.CategoricalLoss = loss.ZeroOne{}
	}
	if ccfg.CategoricalLoss.NeedsDist() {
		return nil, errors.New("mapreduce: probabilistic categorical loss is not supported in parallel CRH")
	}
	if ccfg.Scheme == nil {
		ccfg.Scheme = reg.ExpMax{}
	}
	if ccfg.MaxIters == 0 {
		ccfg.MaxIters = 20
	}
	if cfg.Mappers == 0 {
		cfg.Mappers = ccfg.Workers
	}
	if cfg.Reducers == 0 && ccfg.Workers > 0 {
		cfg.Reducers = ccfg.Workers
	}
	model := DefaultCluster()
	if cfg.Model != nil {
		model = *cfg.Model
	}

	start := time.Now()
	input := Tuples(d)
	K, M := d.NumSources(), d.NumProps()

	// Shared state standing in for the external HDFS files all task
	// nodes read: the weight file (initialized uniformly to 1/K,
	// Section 2.7.2) and the truth file written by each truth job.
	weights := make([]float64, K)
	for k := range weights {
		weights[k] = 1 / float64(K)
	}
	truths := data.NewTableFor(d)
	entryStd := make([]float64, d.NumEntries())

	res := &ParallelResult{}
	for it := 0; it < ccfg.MaxIters; it++ {
		// ---- Truth computation job (Section 2.7.2) ----
		truthJob := Job{
			Name:        fmt.Sprintf("truth-iter%d", it),
			NumMappers:  cfg.Mappers,
			NumReducers: cfg.Reducers,
			// Map re-keys each tuple by its entry ID.
			Map: func(rec Record, emit func(KV)) {
				t := rec.(Tuple)
				emit(KV{Key: entryKey(int(t.EID)), Value: t})
			},
			// Reduce aggregates one entry's observations into its
			// truth under the shared weights.
			Reduce: func(key string, values []any, emit func(KV)) {
				e := parseEntryKey(key)
				p := d.Prop(e % M)
				ts := make([]Tuple, len(values))
				for i, v := range values {
					ts[i] = v.(Tuple)
				}
				// Canonical order: shuffle arrival order depends on
				// mapper sharding; sorting by source restores the
				// serial solver's iteration order bit-for-bit.
				sort.Slice(ts, func(i, j int) bool { return ts[i].SID < ts[j].SID })
				n := len(ts)
				ws := make([]float64, n)
				if p.Type == data.Categorical {
					codes := make([]uint32, n)
					for i, t := range ts {
						codes[i] = uint32(t.V.C)
						ws[i] = weights[t.SID]
					}
					truth := ccfg.CategoricalLoss.Truth(codes, ws, make([]float64, p.NumCats()), nil, p)
					emit(KV{Key: key, Value: truthOut{v: data.Cat(truth)}})
					return
				}
				vals := make([]float64, n)
				for i, t := range ts {
					vals[i] = t.V.F
					ws[i] = weights[t.SID]
				}
				emit(KV{Key: key, Value: truthOut{
					v:   data.Float(ccfg.ContinuousLoss.Truth(vals, ws, make([]float64, n), make([]float64, n))),
					std: stats.Std(vals),
				}})
			},
		}
		out, st, err := Run(truthJob, input)
		if err != nil {
			return nil, err
		}
		res.Jobs = append(res.Jobs, st)

		// Write the truth file and detect convergence.
		changed := 0
		for _, kv := range out {
			e := parseEntryKey(kv.Key)
			to := kv.Value.(truthOut)
			if old, ok := truths.Get(e); !ok || old != to.v {
				changed++
			}
			truths.Set(e, to.v)
			entryStd[e] = to.std
		}
		res.Iterations = it + 1
		if it > 0 && changed == 0 && !cfg.DisableEarlyStop {
			res.Converged = true
			break
		}

		// ---- Weight assignment job (Section 2.7.3) ----
		weightJob := Job{
			Name:        fmt.Sprintf("weight-iter%d", it),
			NumMappers:  cfg.Mappers,
			NumReducers: cfg.Reducers,
			// Map compares each tuple against the shared truth file
			// and emits the partial error keyed by (source, property)
			// so the driver can apply the per-property normalization.
			Map: func(rec Record, emit func(KV)) {
				t := rec.(Tuple)
				e := int(t.EID)
				truth, ok := truths.Get(e)
				if !ok {
					return
				}
				m := e % M
				p := d.Prop(m)
				var dv float64
				if p.Type == data.Categorical {
					dv = ccfg.CategoricalLoss.Deviation(int(truth.C), nil, int(t.V.C), p)
				} else {
					dv = ccfg.ContinuousLoss.Deviation(truth.F, t.V.F, entryStd[e])
				}
				emit(KV{Key: srcPropKey(int(t.SID), m), Value: errPair{sum: dv, count: 1}})
			},
			// Combine sums partial errors inside each mapper, cutting
			// shuffle volume (Section 2.7.3's Combiner).
			Combine: func(_ string, values []any) []any {
				var acc errPair
				for _, v := range values {
					p := v.(errPair)
					acc.sum += p.sum
					acc.count += p.count
				}
				return []any{acc}
			},
			Reduce: func(key string, values []any, emit func(KV)) {
				var acc errPair
				for _, v := range values {
					p := v.(errPair)
					acc.sum += p.sum
					acc.count += p.count
				}
				emit(KV{Key: key, Value: acc})
			},
		}
		out, st, err = Run(weightJob, input)
		if err != nil {
			return nil, err
		}
		res.Jobs = append(res.Jobs, st)

		// Driver: assemble the loss matrix, normalize exactly like the
		// serial solver, and update the shared weight file from the
		// losses and each source's observation count.
		sum := make([]float64, K*M)
		cnt := make([]int32, K*M)
		counts := make([]int, K)
		for _, kv := range out {
			k, m := parseSrcPropKey(kv.Key)
			p := kv.Value.(errPair)
			sum[k*M+m] = p.sum
			cnt[k*M+m] = int32(p.count)
			counts[k] += p.count
		}
		ccfg.Scheme.Weights(weights, core.CombineLosses(sum, cnt, M, ccfg), counts)
	}

	res.Truths = truths
	res.Weights = weights
	res.WallTime = time.Since(start)
	res.SimulatedTime = model.Estimate(res.Jobs)
	return res, nil
}

// entryKey encodes entry IDs with fixed width so the shuffle's
// lexicographic sort coincides with numeric order.
func entryKey(e int) string { return fmt.Sprintf("e%012d", e) }

func parseEntryKey(k string) int {
	e, err := strconv.Atoi(k[1:])
	if err != nil {
		panic("mapreduce: corrupt entry key " + k)
	}
	return e
}

func srcPropKey(k, m int) string { return fmt.Sprintf("s%06d|%06d", k, m) }

func parseSrcPropKey(key string) (k, m int) {
	k, err := strconv.Atoi(key[1:7])
	if err != nil {
		panic("mapreduce: corrupt source key " + key)
	}
	m, err = strconv.Atoi(key[8:])
	if err != nil {
		panic("mapreduce: corrupt source key " + key)
	}
	return k, m
}
