package stream

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/eval"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/reg"
	"github.com/crhkit/crh/internal/synth"
)

func weatherData(t *testing.T) (*data.Dataset, *data.Table) {
	t.Helper()
	return synth.Weather(synth.WeatherConfig{Seed: 41})
}

func TestChunksByWindow(t *testing.T) {
	d, _ := weatherData(t)
	chunks, err := ChunksByWindow(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 32 {
		t.Fatalf("%d chunks, want 32 daily chunks", len(chunks))
	}
	var total, objs int
	for i, ch := range chunks {
		if i > 0 && ch.Timestamp <= chunks[i-1].Timestamp {
			t.Fatal("chunks out of order")
		}
		total += ch.Data.NumObservations()
		objs += ch.Data.NumObjects()
		if len(ch.Objects) != ch.Data.NumObjects() {
			t.Fatal("object mapping length mismatch")
		}
		for ci, oi := range ch.Objects {
			if d.ObjectName(oi) != ch.Data.ObjectName(ci) {
				t.Fatal("object mapping misaligned")
			}
		}
	}
	if total != d.NumObservations() {
		t.Fatalf("chunks cover %d of %d observations", total, d.NumObservations())
	}
	if objs != d.NumObjects() {
		t.Fatalf("chunks cover %d of %d objects", objs, d.NumObjects())
	}
	// Window of 8 days → 4 chunks.
	chunks, err = ChunksByWindow(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("%d chunks with window 8, want 4", len(chunks))
	}
}

func TestChunksByWindowErrors(t *testing.T) {
	b := data.NewBuilder()
	b.ObserveFloat("s", "o", "x", 1)
	d := b.Build()
	if _, err := ChunksByWindow(d, 1); err == nil {
		t.Fatal("expected error for untimestamped dataset")
	}
	d2, _ := weatherData(t)
	if _, err := ChunksByWindow(d2, 0); err == nil {
		t.Fatal("expected error for zero window")
	}
}

func TestRunProducesFullCoverage(t *testing.T) {
	d, gt := weatherData(t)
	res, err := Run(d, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkCount != 32 {
		t.Fatalf("ChunkCount = %d", res.ChunkCount)
	}
	if len(res.History) != 32 {
		t.Fatalf("history length = %d", len(res.History))
	}
	// Every observed entry must be resolved.
	for e := 0; e < d.NumEntries(); e++ {
		if d.EntryObservers(e) > 0 && !res.Truths.Has(e) {
			t.Fatalf("entry %d observed but unresolved", e)
		}
	}
	m := eval.Evaluate(d, res.Truths, gt)
	if m.ErrorRate > 0.5 || math.IsNaN(m.ErrorRate) {
		t.Fatalf("I-CRH error rate = %v", m.ErrorRate)
	}
}

// TestICRHCloseToCRH verifies the paper's Table 5 claim: I-CRH is slightly
// worse than CRH but close on both measures.
func TestICRHCloseToCRH(t *testing.T) {
	d, gt := weatherData(t)
	batch, err := core.Run(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Run(d, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mb := eval.Evaluate(d, batch.Truths, gt)
	mi := eval.Evaluate(d, inc.Truths, gt)
	if mi.ErrorRate > mb.ErrorRate+0.1 {
		t.Fatalf("I-CRH error rate %v too far above CRH %v", mi.ErrorRate, mb.ErrorRate)
	}
	if mi.MNAD > mb.MNAD*1.35 {
		t.Fatalf("I-CRH MNAD %v too far above CRH %v", mi.MNAD, mb.MNAD)
	}
}

// TestWeightsConvergeToCRH mirrors Figure 4b: after several timestamps the
// I-CRH weight vector correlates strongly with batch CRH's.
func TestWeightsConvergeToCRH(t *testing.T) {
	d, _ := weatherData(t)
	batch, err := core.Run(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Run(d, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	late := inc.History[5] // "the sixth timestamp (when they become stable)"
	if c := WeightCorrelation(late, batch.Weights); !(c > 0.8) {
		t.Fatalf("I-CRH/CRH weight correlation at t=6 = %v, want > 0.8", c)
	}
}

// TestWeightsStabilize mirrors Figure 4a: weights reach a stable stage
// after a few timestamps.
func TestWeightsStabilize(t *testing.T) {
	d, _ := weatherData(t)
	inc, err := Run(d, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := inc.History
	last := h[len(h)-1]
	// Compare the weight vector at t=8 and at the end: small drift.
	var drift float64
	for k := range last {
		drift += math.Abs(h[8][k] - last[k])
	}
	drift /= float64(len(last))
	if drift > 0.25 {
		t.Fatalf("weights still drifting after 8 chunks: %v", drift)
	}
}

func TestDecayRates(t *testing.T) {
	d, gt := weatherData(t)
	// All decay rates should give sane results (Figure 6:
	// insensitivity).
	var rates []float64
	for _, a := range []float64{0, 0.2, 0.5, 0.8, 1.0} {
		res, err := Run(d, 1, Config{Decay: a, DecaySet: true})
		if err != nil {
			t.Fatal(err)
		}
		m := eval.Evaluate(d, res.Truths, gt)
		rates = append(rates, m.ErrorRate)
	}
	for i, r := range rates {
		if math.IsNaN(r) || r > 0.55 {
			t.Fatalf("decay rate case %d produced error rate %v", i, r)
		}
	}
	// Insensitivity: max-min spread should be modest.
	min, max := rates[0], rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max-min > 0.08 {
		t.Fatalf("error rate spread across decay rates = %v, want small (Fig 6)", max-min)
	}
}

func TestProcessorSingleChunkMatchesVotingThenWeights(t *testing.T) {
	// The first chunk is processed with uniform weights, so its truths
	// must equal the uniform-weight aggregation (voting / median).
	d, _ := weatherData(t)
	chunks, err := ChunksByWindow(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcessor(d.NumSources(), Config{})
	got := p.Process(chunks[0].Data)
	uniform := make([]float64, d.NumSources())
	for k := range uniform {
		uniform[k] = 1
	}
	want, _ := core.Prepare(chunks[0].Data).Step(uniform, core.Config{})
	for e := 0; e < got.Len(); e++ {
		v1, ok1 := got.Get(e)
		v2, ok2 := want.Get(e)
		if ok1 != ok2 || v1 != v2 {
			t.Fatalf("first-chunk truths deviate from uniform aggregation at entry %d", e)
		}
	}
	if p.Chunks() != 1 || len(p.Weights()) != d.NumSources() {
		t.Fatal("processor bookkeeping wrong")
	}
}

// TestDecayZeroUsesOnlyLatestChunk: with α = 0 the accumulated distances
// equal the latest chunk's losses, so the weights after each chunk must
// match a fresh single-chunk computation.
func TestDecayZeroUsesOnlyLatestChunk(t *testing.T) {
	d, _ := weatherData(t)
	chunks, err := ChunksByWindow(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcessor(d.NumSources(), Config{Decay: 0, DecaySet: true})
	var prevWeights []float64
	for ci, ch := range chunks {
		weightsBefore := p.Weights()
		p.Process(ch.Data)
		// Replay: compute this chunk's losses independently with the
		// same incoming weights, and apply the scheme.
		_, losses := core.Prepare(ch.Data).Step(weightsBefore, core.Config{})
		want := make([]float64, len(losses))
		reg.ExpMax{}.Weights(want, losses, nil)
		got := p.Weights()
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-12 {
				t.Fatalf("chunk %d source %d: weight %v, want %v (memoryless)", ci, k, got[k], want[k])
			}
		}
		prevWeights = got
	}
	_ = prevWeights
}

// scoreCounter tallies a counting loss's Deviations calls and the
// claims they cover.
type scoreCounter struct{ calls, claims atomic.Int64 }

func (c *scoreCounter) add(claims int) {
	c.calls.Add(1)
	c.claims.Add(int64(claims))
}

// countingCategorical is the default categorical loss counting Truth
// calls (one per entry resolved) and its Deviations calls and the
// claims they score.
type countingCategorical struct {
	truths *atomic.Int64
	devs   *scoreCounter
}

func (countingCategorical) Name() string { return "counting-zero-one" }

func (countingCategorical) NeedsDist() bool { return false }

func (c countingCategorical) Truth(codes []uint32, ws []float64, votes, dist []float64, p *data.Property) int {
	c.truths.Add(1)
	return loss.ZeroOne{}.Truth(codes, ws, votes, dist, p)
}

func (c countingCategorical) Deviations(dst []float64, codes []uint32, truth int, dist []float64, p *data.Property) {
	c.devs.add(len(codes))
	loss.ZeroOne{}.Deviations(dst, codes, truth, dist, p)
}

// countingContinuous is the default continuous loss counting its
// Deviations calls and the claims they score.
type countingContinuous struct{ devs *scoreCounter }

func (countingContinuous) Name() string { return "counting-absolute" }

func (countingContinuous) Truth(vals, ws, vbuf, wbuf []float64) float64 {
	return loss.NormalizedAbsolute{}.Truth(vals, ws, vbuf, wbuf)
}

func (c countingContinuous) Deviations(dst, vals []float64, truth, std float64) {
	c.devs.add(len(vals))
	loss.NormalizedAbsolute{}.Deviations(dst, vals, truth, std)
}

// TestProcessScansChunkOnce: Process scans each chunk once (Algorithm 2)
// — one categorical Truth call per resolved categorical entry, one
// Deviations call per observed entry and one deviation per claim — at
// any worker budget.
func TestProcessScansChunkOnce(t *testing.T) {
	d, _ := weatherData(t)
	chunks, err := ChunksByWindow(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	var truthCalls atomic.Int64
	var devs scoreCounter
	for _, workers := range []int{1, 4} {
		p := NewProcessor(d.NumSources(), Config{Core: core.Config{
			ContinuousLoss:  countingContinuous{&devs},
			CategoricalLoss: countingCategorical{&truthCalls, &devs},
			Workers:         workers,
		}})
		for ci, ch := range chunks {
			truthCalls.Store(0)
			devs.calls.Store(0)
			devs.claims.Store(0)
			truths := p.Process(ch.Data)
			var resolved, observed int64
			for e := 0; e < ch.Data.NumEntries(); e++ {
				if ch.Data.Prop(ch.Data.EntryProp(e)).Type == data.Categorical && truths.Has(e) {
					resolved++
				}
				if len(ch.Data.EntrySources(e)) > 0 {
					observed++
				}
			}
			if resolved == 0 {
				t.Fatalf("chunk %d resolves no categorical entry", ci)
			}
			if got := truthCalls.Load(); got != resolved {
				t.Errorf("workers=%d chunk %d: %d categorical Truth calls, want %d (one per resolved entry)", workers, ci, got, resolved)
			}
			if got, want := devs.claims.Load(), int64(ch.Data.NumObservations()); got != want {
				t.Errorf("workers=%d chunk %d: %d deviations, want %d (one per claim)", workers, ci, got, want)
			}
			if got := devs.calls.Load(); got != observed {
				t.Errorf("workers=%d chunk %d: %d Deviations calls, want %d (one per observed entry)", workers, ci, got, observed)
			}
		}
	}
}

// TestHistoryIsolated: History entries must be snapshots, not aliases of
// the live weight slice.
func TestHistoryIsolated(t *testing.T) {
	d, _ := weatherData(t)
	res, err := Run(d, 8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Fatal("need at least 2 chunks")
	}
	h0 := append([]float64(nil), res.History[0]...)
	res.History[len(res.History)-1][0] = -99
	for k := range h0 {
		if res.History[0][k] != h0[k] {
			t.Fatal("history snapshots alias each other")
		}
	}
}

// TestProcessorConcurrentAppendQuery exercises the incremental path the
// way crhd's registry drives it: one mutex serializes Process (append)
// while concurrent readers take snapshots of Weights/Chunks between
// chunks. Run with -race, this pins down the locking contract a
// concurrent server must follow, and the final state must be identical to
// a purely sequential run over the same chunks.
func TestProcessorConcurrentAppendQuery(t *testing.T) {
	d, _ := weatherData(t)
	chunks, err := ChunksByWindow(d, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: sequential processing.
	ref := NewProcessor(d.NumSources(), Config{})
	var refTruths []*data.Table
	for _, ch := range chunks {
		refTruths = append(refTruths, ref.Process(ch.Data))
	}

	// Concurrent: a single writer appends chunks under mu while readers
	// query under the same lock (RWMutex, as the server does).
	proc := NewProcessor(d.NumSources(), Config{})
	var mu sync.RWMutex
	var truths []*data.Table
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ch := range chunks {
			mu.Lock()
			truths = append(truths, proc.Process(ch.Data))
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				w := proc.Weights()
				n := proc.Chunks()
				mu.RUnlock()
				if len(w) != d.NumSources() {
					t.Errorf("snapshot has %d weights, want %d", len(w), d.NumSources())
					return
				}
				if n < 0 || n > len(chunks) {
					t.Errorf("%d chunks processed of %d", n, len(chunks))
					return
				}
				for _, x := range w {
					if math.IsNaN(x) {
						t.Error("NaN weight observed mid-stream")
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()

	// The concurrent run must be bit-identical to the sequential one.
	if proc.Chunks() != ref.Chunks() {
		t.Fatalf("processed %d chunks, want %d", proc.Chunks(), ref.Chunks())
	}
	refW, gotW := ref.Weights(), proc.Weights()
	for k := range refW {
		if refW[k] != gotW[k] {
			t.Fatalf("weight %d = %v, want %v", k, gotW[k], refW[k])
		}
	}
	for i := range refTruths {
		want, got := refTruths[i], truths[i]
		if want.Count() != got.Count() {
			t.Fatalf("chunk %d: %d truths, want %d", i, got.Count(), want.Count())
		}
		for e := 0; e < want.Len(); e++ {
			wv, wok := want.Get(e)
			gv, gok := got.Get(e)
			p := chunks[i].Data.Prop(chunks[i].Data.EntryProp(e))
			if wok != gok || (wok && !wv.Equal(gv, p.Type)) {
				t.Fatalf("chunk %d entry %d differs", i, e)
			}
		}
	}
}

// TestIngestMetrics verifies the processor drives the optional ingest
// counters: chunk/observation totals and the source population.
func TestIngestMetrics(t *testing.T) {
	d, _ := weatherData(t)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	res, err := Run(d, 8, Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Chunks.Value(); got != int64(res.ChunkCount) {
		t.Fatalf("chunks counter = %d, want %d", got, res.ChunkCount)
	}
	if got := m.Observations.Value(); got != int64(d.NumObservations()) {
		t.Fatalf("observations counter = %d, want %d", got, d.NumObservations())
	}
	if got := m.Sources.Value(); got != float64(d.NumSources()) {
		t.Fatalf("sources gauge = %v, want %d", got, d.NumSources())
	}
	// A nil Metrics is a no-op, not a crash.
	if _, err := Run(d, 8, Config{}); err != nil {
		t.Fatal(err)
	}
}
