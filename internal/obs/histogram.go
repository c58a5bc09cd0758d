package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefBuckets is the default histogram bucket schedule (seconds): roughly
// logarithmic from 100µs to 5s, matching the server's resolve latencies
// (cache hits in microseconds, cold full resolves in seconds).
var DefBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// ExponentialBuckets returns count buckets starting at start, each
// factor times the previous — a convenience for configuring
// NewHistogram. start and factor must be positive, factor > 1.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram is a fixed-bucket histogram with atomic counters — safe for
// concurrent observation without locks. Bounds are upper bucket edges
// (inclusive); one extra +Inf bucket catches the overflow. Create
// through Registry.NewHistogram.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// newHistogram builds a histogram over the given ascending bounds, or
// DefBuckets when nil.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the Prometheus base
// unit for latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds, plus totals. The
// exposition converts to cumulative le-buckets; JSON consumers get the
// raw per-bucket shape.
type HistogramSnapshot struct {
	// Bounds are the upper bucket edges; Counts[i] tallies observations
	// in (Bounds[i-1], Bounds[i]], with Counts[len(Bounds)] the +Inf
	// overflow.
	Bounds []float64
	Counts []int64 // see Bounds
	// Count and Sum total the observations and their values (so the mean
	// is Sum/Count).
	Count int64
	Sum   float64 // see Count
}

// Snapshot copies the histogram's current state. Buckets are read
// without a barrier, so a snapshot taken during concurrent observation
// is approximate (totals may trail the buckets by in-flight updates).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucketed
// counts by linear interpolation within the containing bucket, the same
// estimate Prometheus's histogram_quantile computes. The first bucket
// interpolates from zero; an estimate landing in the +Inf bucket is
// clamped to the highest finite bound. Returns NaN on an empty
// histogram or out-of-range q.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}
