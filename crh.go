// Package crh is a Go implementation of the CRH framework — Conflict
// Resolution on Heterogeneous data — from "Resolving Conflicts in
// Heterogeneous Data by Truth Discovery and Source Reliability Estimation"
// (SIGMOD 2014) and its extended version "Conflicts to Harmony" (TKDE
// 2016).
//
// Given observations about the same objects from multiple conflicting
// sources — mixing continuous and categorical properties, with missing
// values — CRH jointly estimates:
//
//   - a truth table: the most trustworthy value for every entry, and
//   - source weights: each source's reliability degree,
//
// by minimizing the weighted deviation between truths and observations,
//
//	min_{X*,W}  Σ_k w_k Σ_i Σ_m d_m(v*_im, v^k_im)   s.t. δ(W) = 1,
//
// with type-appropriate loss functions d_m and an iterative two-step
// solver. The package also provides the incremental variant (I-CRH) for
// streaming data, a MapReduce-parallel variant for large data sets, the
// ten baseline methods the paper compares against, and the full
// experiment harness reproducing the paper's tables and figures.
//
// # Quick start
//
//	b := crh.NewBuilder()
//	b.ObserveFloat("wunderground", "nyc/2014-07-01", "high_temp", 84)
//	b.ObserveFloat("hamweather", "nyc/2014-07-01", "high_temp", 79)
//	b.ObserveCat("wunderground", "nyc/2014-07-01", "condition", "sunny")
//	b.ObserveCat("hamweather", "nyc/2014-07-01", "condition", "rain")
//	res, err := crh.Run(b.Build(), crh.Options{})
//	// res.Truths holds the resolved values, res.Weights the reliability.
//
// See the examples directory for complete programs.
package crh

import (
	"io"

	"github.com/crhkit/crh/internal/baseline"
	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/eval"
	"github.com/crhkit/crh/internal/obs"
)

// Core data model. These alias the internal implementation so the whole
// library shares one representation.
type (
	// Dataset is an immutable multi-source observation matrix: K sources
	// × N objects × M typed properties, with missing values. Build one
	// with a Builder or decode one with ReadDataset.
	Dataset = data.Dataset
	// Builder assembles a Dataset from observation triples.
	Builder = data.Builder
	// Table maps entries (object, property pairs) to values; used for
	// inferred truths and for ground truths.
	Table = data.Table
	// Value is one typed observation payload.
	Value = data.Value
	// Property describes one typed feature of the objects.
	Property = data.Property
	// Type is a property's data type.
	Type = data.Type
)

// Property data types.
const (
	// Continuous marks real-valued properties (aggregated by weighted
	// median or mean).
	Continuous = data.Continuous
	// Categorical marks discrete-valued properties (aggregated by
	// weighted voting).
	Categorical = data.Categorical
)

// NewBuilder returns an empty dataset builder.
func NewBuilder() *Builder { return data.NewBuilder() }

// NewTable returns an empty table shaped like d — e.g., for assembling a
// ground truth to Evaluate against.
func NewTable(d *Dataset) *Table { return data.NewTableFor(d) }

// Float constructs a continuous Value.
func Float(f float64) Value { return data.Float(f) }

// Cat constructs a categorical Value from a dictionary index.
func Cat(id int) Value { return data.Cat(id) }

// Options configures a CRH run. The zero value selects the paper's
// defaults: weighted-median aggregation for continuous properties
// (normalized absolute loss), weighted voting for categorical properties
// (0-1 loss), and max-normalized negative-log weight assignment. See
// AbsoluteLoss, SquaredLoss, ZeroOneLoss, ProbabilisticLoss and the
// *Weights constructors for the pluggable pieces.
type Options = core.Config

// Result is the output of a CRH run: the truth table, source weights, and
// convergence diagnostics.
type Result = core.Result

// SolverTrace receives per-iteration solver telemetry when set as
// Options.Trace: objective value, per-phase wall time, weight-vector
// summary, and truth-change count. See NewJSONLTrace for a ready-made
// sink and TraceFunc to adapt a plain function.
type SolverTrace = obs.SolverTrace

// IterationTrace is one solver iteration's telemetry record, as
// delivered to a SolverTrace (and serialized by NewJSONLTrace, one JSON
// object per line).
type IterationTrace = obs.IterationTrace

// TraceFunc adapts a function to the SolverTrace interface.
type TraceFunc = obs.TraceFunc

// JSONLTrace is a SolverTrace writing JSON Lines; see NewJSONLTrace.
type JSONLTrace = obs.JSONLTrace

// NewJSONLTrace returns a SolverTrace that appends one JSON record per
// iteration to w — the sink behind cmd/crh's -trace flag. The trace
// schema is documented in docs/OBSERVABILITY.md.
func NewJSONLTrace(w io.Writer) *obs.JSONLTrace { return obs.NewJSONLTrace(w) }

// Pool is a reusable solver worker pool. One pool may be shared by any
// number of concurrent Run calls (set it as Options.Pool); its size then
// bounds total solver concurrency across them, while each run's
// Options.Workers bounds that run's share. Sharing a pool never changes
// results: solver output is bit-for-bit identical for every worker
// count. See NewPool and docs/PARALLEL.md.
type Pool = core.Pool

// NewPool starts a worker pool with the given number of goroutines
// (0 selects GOMAXPROCS). Call Close to release them.
func NewPool(workers int) *Pool { return core.NewPool(workers) }

// ErrEmptyDataset is returned by Run for datasets with no sources or
// entries.
var ErrEmptyDataset = core.ErrEmptyDataset

// Run executes the CRH framework (Algorithm 1) on a dataset: it
// iteratively alternates source-weight estimation and truth computation
// until the objective converges. Deterministic for a given dataset and
// options, and bit-for-bit identical for every Options.Workers setting
// (the parallel engine's determinism contract; see docs/PARALLEL.md).
func Run(d *Dataset, opts Options) (*Result, error) { return core.Run(d, opts) }

// Metrics holds the paper's evaluation measures: ErrorRate over
// categorical entries and MNAD (mean normalized absolute distance) over
// continuous entries.
type Metrics = eval.Metrics

// Evaluate scores a truth table against a (possibly partial) ground
// truth. Only entries present in gt are scored.
func Evaluate(d *Dataset, output, gt *Table) Metrics { return eval.Evaluate(d, output, gt) }

// TrueReliability computes each source's ground-truth reliability degree
// in [0, 1]: accuracy on categorical entries combined with closeness on
// continuous entries.
func TrueReliability(d *Dataset, gt *Table) []float64 { return eval.TrueReliability(d, gt) }

// Method is a conflict-resolution algorithm: it resolves a dataset into a
// truth table plus optional per-source reliability scores. CRH itself,
// and every baseline, satisfies this interface.
type Method = baseline.Method

// Baselines returns fresh instances of the ten comparison methods from
// the paper (Mean, Median, GTM, Voting, Investment, PooledInvestment,
// 2-Estimates, 3-Estimates, TruthFinder, AccuSim), each with its authors'
// recommended parameters.
func Baselines() []Method { return baseline.All() }

// ListBaselines returns the names of every registered conflict-resolution
// method beyond CRH itself: the ten Table 2 baselines plus AccuCopy. The
// names are the ones accepted by BaselineByName, cmd/crh's -method flag,
// and crhd's resolve endpoint, so every consumer shares one registry.
func ListBaselines() []string { return baseline.Names() }

// BaselineByName returns a fresh instance of the registered method with
// the given name (one of ListBaselines), or false when no such method
// exists.
func BaselineByName(name string) (Method, bool) { return baseline.ByName(name) }

// WriteDataset encodes a dataset (and optional ground truth, which may be
// nil) to w in the library's line-oriented TSV format. It fails before
// writing anything when a name holds a tab or a newline.
func WriteDataset(w io.Writer, d *Dataset, gt *Table) error { return data.Encode(w, d, gt) }

// ReadDataset decodes a dataset (and ground truth, nil when the input has
// none) from the TSV format produced by WriteDataset.
func ReadDataset(r io.Reader) (*Dataset, *Table, error) { return data.Decode(r) }

// AccuCopyMethod returns the dependence-aware conflict-resolution method —
// the full model of Dong et al. (VLDB 2009) with Bayesian copy detection,
// which the paper's comparison deliberately excludes and defers to future
// work. Use it when sources may copy from each other: a block of copiers
// is collapsed to roughly one vote instead of outvoting honest sources.
func AccuCopyMethod() Method { return baseline.AccuCopy{} }
