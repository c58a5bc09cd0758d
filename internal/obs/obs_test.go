package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "a counter")
	c.Add(1)
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got < 1.499 || got > 1.501 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "", []float64{0.1, 0.25, 0.5, 1})
	// Boundary semantics: upper edges are inclusive.
	for _, v := range []float64{0.05, 0.1, 0.100001, 0.25, 0.9, 1.0, 7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 0, 2, 1} // (0,.1], (.1,.25], (.25,.5], (.5,1], +Inf
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-9.400001) > 1e-9 {
		t.Errorf("sum = %v, want 9.400001", s.Sum)
	}
}

func TestHistogramDuration(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("d_seconds", "", nil) // DefBuckets
	h.ObserveDuration(50 * time.Microsecond)
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(10 * time.Second) // overflow
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[5] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("duration buckets wrong: %v", s.Counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_seconds", "", []float64{1, 2, 4})
	// 10 observations uniform in (0,1], 10 in (1,2].
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	s := h.Snapshot()
	// Median: rank 10 falls exactly at the top of bucket (0,1].
	if got := s.Quantile(0.5); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("q50 = %v, want 1.0", got)
	}
	// 75th: rank 15 is midway through bucket (1,2] -> 1.5.
	if got := s.Quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("q75 = %v, want 1.5", got)
	}
	// 25th: rank 5 is midway through bucket (0,1] -> 0.5.
	if got := s.Quantile(0.25); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("q25 = %v, want 0.5", got)
	}
	// Overflow observations clamp to the highest finite bound.
	h.Observe(100)
	if got := h.Snapshot().Quantile(1); math.Abs(got-4) > 1e-9 {
		t.Errorf("q100 with overflow = %v, want 4", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

func TestBucketGenerators(t *testing.T) {
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
}

// TestExpositionGolden pins the Prometheus text format: family grouping,
// HELP/TYPE headers, label merging, cumulative le buckets.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter(`req_total{op="resolve"}`, "requests served")
	b := r.NewCounter(`req_total{op="ingest"}`, "requests served")
	r.NewGaugeFunc("up", "always one", func() float64 { return 1 })
	h := r.NewHistogram(`lat_seconds{op="resolve"}`, "latency", []float64{0.5, 1})
	a.Add(3)
	b.Add(2)
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	wantExact := "# HELP lat_seconds latency\n" +
		"# TYPE lat_seconds histogram\n" +
		"lat_seconds_bucket{op=\"resolve\",le=\"0.5\"} 1\n" +
		"lat_seconds_bucket{op=\"resolve\",le=\"1\"} 2\n" +
		"lat_seconds_bucket{op=\"resolve\",le=\"+Inf\"} 3\n" +
		"lat_seconds_sum{op=\"resolve\"} 10\n" +
		"lat_seconds_count{op=\"resolve\"} 3\n" +
		"# HELP req_total requests served\n" +
		"# TYPE req_total counter\n" +
		"req_total{op=\"resolve\"} 3\n" +
		"req_total{op=\"ingest\"} 2\n" +
		"# HELP up always one\n" +
		"# TYPE up gauge\n" +
		"up 1\n"
	if got != wantExact {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, wantExact)
	}
}

// TestGaugeNaNOmitted pins the no-value rule: a NaN gauge (a ratio
// before its first lookup, an age before its first event) contributes
// its HELP/TYPE headers but no sample line — NaN in the exposition
// breaks strict scrapers. Mirrors the empty-histogram quantile omission.
func TestGaugeNaNOmitted(t *testing.T) {
	r := NewRegistry()
	v := math.NaN()
	r.NewGaugeFunc("ratio", "no value until set", func() float64 { return v })
	expo := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := "# HELP ratio no value until set\n# TYPE ratio gauge\n"
	if got := expo(); got != want {
		t.Errorf("NaN gauge exposition = %q, want headers only %q", got, want)
	}
	v = 0.5
	if got := expo(); got != want+"ratio 0.5\n" {
		t.Errorf("exposition after value = %q", got)
	}
}

// TestConcurrentHammer exercises counters, gauges, and histograms from
// many goroutines under -race, with concurrent exposition reads.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hammer_total", "")
	g := r.NewGauge("hammer_gauge", "")
	h := r.NewHistogram("hammer_seconds", "", nil)
	const goroutines, iters = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				c.Add(1)
				g.Add(1)
				h.Observe(float64(j%100) / 1000)
				if j%500 == 0 {
					_ = r.WritePrometheus(&strings.Builder{})
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != goroutines*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), goroutines*iters)
	}
	if got := g.Value(); math.Abs(got-goroutines*iters) > 1e-9 {
		t.Fatalf("gauge = %v, want %d", got, goroutines*iters)
	}
	s := h.Snapshot()
	if s.Count != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", s.Count, goroutines*iters)
	}
	var bucketTotal int64
	for _, b := range s.Counts {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}
