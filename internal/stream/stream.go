// Package stream implements Incremental CRH (I-CRH, Algorithm 2): truth
// discovery over data arriving in timestamped chunks. Unlike batch CRH,
// each chunk is scanned exactly once — truths for the chunk are computed
// from the source weights learned so far, then the weights are refreshed
// from decayed accumulated distances, without revisiting past data.
package stream

import (
	"errors"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/reg"
	"github.com/crhkit/crh/internal/stats"
)

// Chunk is one timestamped batch of observations carved out of a dataset,
// retaining the mapping back to the original object indices so per-chunk
// truths can be reassembled into a full truth table.
type Chunk struct {
	// Timestamp identifies the window (its first timestamp value).
	Timestamp int
	// Data holds the chunk's observations; object i of Data is object
	// Objects[i] of the original dataset.
	Data    *data.Dataset
	Objects []int
}

// ChunksByWindow splits a timestamped dataset into consecutive windows
// covering `window` timestamps each ("the time window for data collection
// decides the size of each data chunk"). Windows with no objects are
// skipped. An error is returned when the dataset carries no timestamps or
// window is not positive.
func ChunksByWindow(d *data.Dataset, window int) ([]Chunk, error) {
	if !d.HasTimestamps() {
		return nil, errors.New("stream: dataset has no timestamps")
	}
	if window <= 0 {
		return nil, errors.New("stream: window must be positive")
	}
	min, max := d.TimestampRange()
	var chunks []Chunk
	for start := min; start <= max; start += window {
		in := func(i int) bool { ts := d.Timestamp(i); return ts >= start && ts < start+window }
		var objects []int
		for i := 0; i < d.NumObjects(); i++ {
			if in(i) {
				objects = append(objects, i)
			}
		}
		if len(objects) == 0 {
			continue
		}
		chunks = append(chunks, Chunk{Timestamp: start, Data: d.Slice(in), Objects: objects})
	}
	return chunks, nil
}

// Config controls an I-CRH processor. Loss and scheme defaults follow
// batch CRH (weighted median / weighted voting / exp-max weights).
type Config struct {
	// Core carries the loss functions, weight scheme and normalization
	// flags shared with batch CRH. Iteration fields are ignored — I-CRH
	// runs one pass per chunk — but Core.Workers and Core.Pool are
	// honored: each chunk's truth pass and loss accumulation run on the
	// parallel engine, with output bit-identical at any worker count
	// (crhd points Pool at its shared resolve pool so warm re-solves
	// respect the server-wide solver budget).
	Core core.Config
	// Decay is the rate α ∈ [0, 1] applied to the accumulated distances
	// before each chunk is added: a_k ← α·a_k + loss_k. Smaller values
	// forget history faster. Defaults to 1 (all history retained, the
	// natural streaming analogue of batch CRH).
	Decay float64
	// decaySet distinguishes an explicit 0 from the zero value.
	DecaySet bool
	// Metrics, when non-nil, receives ingest telemetry from every
	// Process call. Create with NewMetrics; multiple processors may
	// share one set (the counters are atomic), which is how crhd
	// aggregates ingest load across datasets.
	Metrics *Metrics
}

// Metrics holds the ingest counters an I-CRH processor drives: chunk and
// observation totals plus the current source population. Create with
// NewMetrics so the series appear in a registry's exposition.
type Metrics struct {
	// Chunks counts Process calls; Observations the observations they
	// carried.
	Chunks       *obs.Counter
	Observations *obs.Counter // see Chunks
	// Sources tracks the largest source population seen (streams grow
	// their source set open-endedly).
	Sources *obs.Gauge
}

// NewMetrics registers the streaming ingest metrics on reg under the
// crh_stream_* names documented in docs/OBSERVABILITY.md.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Chunks:       reg.NewCounter("crh_stream_chunks_total", "I-CRH chunks processed"),
		Observations: reg.NewCounter("crh_stream_observations_total", "observations scanned by the I-CRH processor"),
		Sources:      reg.NewGauge("crh_stream_sources", "source population of the I-CRH processor"),
	}
}

// record folds one processed chunk into the metrics.
func (m *Metrics) record(chunk *data.Dataset, sources int) {
	if m == nil {
		return
	}
	m.Chunks.Add(1)
	m.Observations.Add(int64(chunk.NumObservations()))
	m.Sources.Set(float64(sources))
}

// Processor consumes chunks one at a time, maintaining source weights and
// accumulated distances across chunks. Create with NewProcessor; not safe
// for concurrent use.
type Processor struct {
	cfg     Config
	weights []float64
	accum   []float64
	n       int // chunks processed
}

// NewProcessor returns a Processor for streams whose chunks share the
// given source count. Weights start at 1 and accumulated distances at 0
// (Algorithm 2, line 1).
func NewProcessor(numSources int, cfg Config) *Processor {
	if !cfg.DecaySet && cfg.Decay == 0 {
		cfg.Decay = 1
	}
	p := &Processor{
		cfg:     cfg,
		weights: make([]float64, numSources),
		accum:   make([]float64, numSources),
	}
	for k := range p.weights {
		p.weights[k] = 1
	}
	return p
}

// grow extends the per-source state when a chunk introduces new sources
// (a never-ending stream's population is open-ended). New sources start
// with weight 1 and an empty loss history, exactly like Algorithm 2's
// initialization.
func (p *Processor) grow(numSources int) {
	for len(p.weights) < numSources {
		p.weights = append(p.weights, 1)
		p.accum = append(p.accum, 0)
	}
}

// Process handles one chunk: it computes the chunk's truths from the
// current weights (Algorithm 2, line 3), folds the chunk's per-source
// losses into the decayed accumulated distances (line 4), and refreshes
// the weights from the accumulation (line 5). The chunk is scanned once:
// one core.Prepared.Step sweep chooses each entry's truth and charges
// its claims' deviations right after. Chunks may introduce sources the
// processor has not seen; their state is initialized on first
// appearance.
func (p *Processor) Process(chunk *data.Dataset) *data.Table {
	p.grow(chunk.NumSources())
	truths, losses := core.Prepare(chunk).Step(p.weights, p.cfg.Core)
	for k := range p.accum {
		p.accum[k] *= p.cfg.Decay
		if k < len(losses) {
			p.accum[k] += losses[k]
		}
	}
	scheme := p.cfg.Core.Scheme
	if scheme == nil {
		scheme = reg.ExpMax{}
	}
	// The decayed accumulation tracks no observation counts.
	scheme.Weights(p.weights, p.accum, nil)
	p.n++
	p.cfg.Metrics.record(chunk, len(p.weights))
	return truths
}

// Weights returns the current source weights (a copy).
func (p *Processor) Weights() []float64 {
	return append([]float64(nil), p.weights...)
}

// State returns the processor's durable state — copies of the current
// source weights and decayed accumulated distances plus the number of
// chunks processed. Together with Restore it lets crhd checkpoint warm
// I-CRH state at a version boundary and rebuild it exactly after a
// crash (docs/DURABILITY.md).
func (p *Processor) State() (weights, accum []float64, chunks int) {
	return append([]float64(nil), p.weights...), append([]float64(nil), p.accum...), p.n
}

// Restore replaces the processor's state with one previously captured
// by State. Subsequent Process calls continue bit-for-bit identically
// to a processor that never stopped.
func (p *Processor) Restore(weights, accum []float64, chunks int) {
	p.weights = append([]float64(nil), weights...)
	p.accum = append([]float64(nil), accum...)
	p.n = chunks
}

// Chunks returns the number of chunks processed so far.
func (p *Processor) Chunks() int { return p.n }

// Result is the outcome of a full streaming run.
type Result struct {
	// Truths maps every resolved entry of the original dataset to its
	// I-CRH estimate.
	Truths *data.Table
	// Weights is the final weight vector; History the weight vector
	// after each chunk — the trajectories plotted in Figure 4a.
	Weights []float64
	History [][]float64
	// ChunkCount is the number of non-empty windows processed.
	ChunkCount int
}

// Run applies I-CRH over a timestamped dataset with the given window size,
// reassembling per-chunk truths into a table aligned with d's entries.
func Run(d *data.Dataset, window int, cfg Config) (*Result, error) {
	chunks, err := ChunksByWindow(d, window)
	if err != nil {
		return nil, err
	}
	p := NewProcessor(d.NumSources(), cfg)
	full := data.NewTableFor(d)
	var history [][]float64
	for _, ch := range chunks {
		truths := p.Process(ch.Data)
		M := d.NumProps()
		for ci, oi := range ch.Objects {
			for m := 0; m < M; m++ {
				if v, ok := truths.GetAt(ci, m); ok {
					full.SetAt(oi, m, v)
				}
			}
		}
		history = append(history, p.Weights())
	}
	return &Result{
		Truths:     full,
		Weights:    p.Weights(),
		History:    history,
		ChunkCount: p.Chunks(),
	}, nil
}

// WeightCorrelation compares a weight vector against a reference (e.g.,
// batch CRH weights) via Pearson correlation — used to show I-CRH weights
// converge to CRH's (Figure 4b).
func WeightCorrelation(a, b []float64) float64 { return stats.Pearson(a, b) }
