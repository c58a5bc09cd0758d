package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// WeightSummary condenses a source-weight vector into the scalars worth
// tracing per iteration: the extremes, the mean, and the normalized
// entropy of the weight distribution (0 = one source holds all the
// weight, 1 = uniform) — the quantity whose drift shows reliability
// estimates concentrating.
type WeightSummary struct {
	// Min, Max, and Mean summarize the raw weight values.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`  // see Min
	Mean float64 `json:"mean"` // see Min
	// Entropy is the Shannon entropy of the sum-normalized weights,
	// divided by log(len) so it lies in [0,1]; 0 for vectors with fewer
	// than two positive entries.
	Entropy float64 `json:"entropy"`
}

// SummarizeWeights computes a WeightSummary. Non-positive weights
// contribute to Min/Max/Mean but not to the entropy term.
func SummarizeWeights(ws []float64) WeightSummary {
	var s WeightSummary
	if len(ws) == 0 {
		return s
	}
	s.Min, s.Max = ws[0], ws[0]
	var sum float64
	for _, w := range ws {
		if w < s.Min {
			s.Min = w
		}
		if w > s.Max {
			s.Max = w
		}
		if w > 0 {
			sum += w
		}
	}
	s.Mean = mean(ws)
	if sum <= 0 || len(ws) < 2 {
		return s
	}
	var h float64
	for _, w := range ws {
		if w <= 0 {
			continue
		}
		p := w / sum
		h -= p * math.Log(p)
	}
	s.Entropy = h / math.Log(float64(len(ws)))
	return s
}

func mean(ws []float64) float64 {
	var t float64
	for _, w := range ws {
		t += w
	}
	return t / float64(len(ws))
}

// IterationTrace is one solver iteration's telemetry, emitted by the
// block-coordinate-descent loop after its convergence check. Durations
// marshal as integer nanoseconds.
type IterationTrace struct {
	// Iteration numbers the weight/truth iterations from 1.
	Iteration int `json:"iter"`
	// Objective is the value of the CRH objective after this iteration's
	// truth update — the per-iteration convergence curve.
	Objective float64 `json:"objective"`
	// WeightPhase, TruthPhase, and ObjectivePhase are the wall times of
	// the iteration's three stages. WeightPhase is the Step I weight
	// scheme over losses already scored. TruthPhase is the iteration's
	// one pass over the claims: the Step II truth update, the scoring of
	// each claim against its new truth, and the merge of the per-shard
	// losses. ObjectivePhase is the objective's dot product of the
	// weights and those losses.
	WeightPhase    time.Duration `json:"weight_phase_ns"`
	TruthPhase     time.Duration `json:"truth_phase_ns"`     // see WeightPhase
	ObjectivePhase time.Duration `json:"objective_phase_ns"` // see WeightPhase
	// TruthChanges counts entries whose truth estimate changed in this
	// iteration's truth update (categorical: different label; continuous:
	// moved by more than 1e-12).
	TruthChanges int `json:"truth_changes"`
	// WeightWorkers and TruthWorkers are the worker budgets engaged by
	// the iteration's weight-update and truth-update phases (1 =
	// sequential; the weight scheme runs on one goroutine, so
	// WeightWorkers is always 1). The budget never affects results —
	// solver output is bit-identical for every worker count — so these
	// exist purely to attribute phase wall times to the parallelism that
	// produced them.
	WeightWorkers int `json:"weight_workers"`
	TruthWorkers  int `json:"truth_workers"` // see WeightWorkers
	// Weights summarizes the source-weight vector after the weight
	// update (the first property group's weights when groups are
	// configured).
	Weights WeightSummary `json:"weights"`
	// Converged marks the final iteration when the tolerance was met.
	Converged bool `json:"converged"`
}

// SolverTrace receives per-iteration telemetry from a solver run. A nil
// trace disables instrumentation entirely — the hot loop computes none
// of the trace-only quantities.
type SolverTrace interface {
	// TraceIteration is called once per iteration, after the convergence
	// check, from the goroutine driving the solve.
	TraceIteration(IterationTrace)
}

// TraceFunc adapts a function to the SolverTrace interface.
type TraceFunc func(IterationTrace)

// TraceIteration implements SolverTrace.
func (f TraceFunc) TraceIteration(t IterationTrace) { f(t) }

// JSONLTrace is a SolverTrace writing one JSON record per iteration to
// an io.Writer — the ready-made sink behind cmd/crh's -trace flag. Safe
// for concurrent use (multiple solver runs may share one sink).
type JSONLTrace struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLTrace returns a JSONL sink writing to w. The caller owns w's
// lifecycle (flushing and closing files).
func NewJSONLTrace(w io.Writer) *JSONLTrace {
	return &JSONLTrace{enc: json.NewEncoder(w)}
}

// TraceIteration implements SolverTrace: it appends one JSON line. The
// first write error is retained and reported by Err; later records are
// still attempted (the encoder fails fast on a broken writer).
func (t *JSONLTrace) TraceIteration(rec IterationTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.enc.Encode(rec); err != nil && t.err == nil {
		t.err = err
	}
}

// Err returns the first write error encountered, if any.
func (t *JSONLTrace) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
