package obs

import (
	"sync"
	"testing"
	"time"
)

// Span stages used by the tests; real stage enums live in the
// instrumented subsystems.
const (
	stA Stage = iota
	stB
	stC
)

func TestSpanMarkOrdering(t *testing.T) {
	start := time.Now()
	s := StartSpan()
	defer s.Release()
	time.Sleep(2 * time.Millisecond)
	s.Mark(stA)
	time.Sleep(time.Millisecond)
	s.Mark(stB)
	a, b := s.Stage(stA), s.Stage(stB)
	if a < 2*time.Millisecond {
		t.Errorf("stage A = %v, want ≥ 2ms", a)
	}
	if b < time.Millisecond {
		t.Errorf("stage B = %v, want ≥ 1ms", b)
	}
	if tot := time.Since(start); tot < a+b {
		t.Errorf("total %v < sum of stages %v", tot, a+b)
	}
	if c := s.Stage(stC); c != 0 {
		t.Errorf("untouched stage = %v, want 0", c)
	}
}

func TestSpanMarkAccumulates(t *testing.T) {
	s := StartSpan()
	defer s.Release()
	s.Add(stA, 3*time.Millisecond)
	s.Add(stA, 4*time.Millisecond)
	if got := s.Stage(stA); got != 7*time.Millisecond {
		t.Fatalf("accumulated stage = %v, want 7ms", got)
	}
}

// TestSpanPoolReuse proves a released span comes back zeroed.
func TestSpanPoolReuse(t *testing.T) {
	s := StartSpan()
	s.Add(stB, time.Second)
	s.Release()
	for i := 0; i < 100; i++ {
		s2 := StartSpan()
		if got := s2.Stage(stB); got != 0 {
			t.Fatalf("recycled span carries stale stage %v", got)
		}
		s2.Release()
	}
}

// TestNilSpanNoAllocs is the disabled-path contract: every Span method
// on a nil receiver is a no-op and the whole sequence allocates nothing.
// The //crh:hotpath annotations enforce the same statically.
func TestNilSpanNoAllocs(t *testing.T) {
	var sink time.Duration
	allocs := testing.AllocsPerRun(1000, func() {
		var s *Span
		s.Mark(stA)
		s.Add(stB, time.Millisecond)
		sink = s.Stage(stA)
		s.Release()
	})
	if allocs != 0 {
		t.Fatalf("nil-span sequence allocates %v allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestSpanEnabledSteadyStateNoAllocs proves the pooled enabled path also
// settles at zero allocations per request once the pool is warm.
func TestSpanEnabledSteadyStateNoAllocs(t *testing.T) {
	// Warm the pool.
	StartSpan().Release()
	allocs := testing.AllocsPerRun(1000, func() {
		s := StartSpan()
		s.Mark(stA)
		s.Add(stB, time.Millisecond)
		s.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled span path allocates %v allocs/op, want 0", allocs)
	}
}

// TestSpanConcurrentHammer exercises the pool from many goroutines
// under -race (each span itself stays goroutine-local, as documented).
func TestSpanConcurrentHammer(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := StartSpan()
				s.Mark(stA)
				s.Add(stB, time.Microsecond)
				if s.Stage(stB) != time.Microsecond {
					t.Error("lost stage write")
					s.Release()
					return
				}
				s.Release()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSpanDisabled measures the nil-span (instrumentation off)
// path; the committed expectation is 0 B/op, 0 allocs/op.
func BenchmarkSpanDisabled(b *testing.B) {
	b.ReportAllocs()
	var s *Span
	for i := 0; i < b.N; i++ {
		s.Mark(stA)
		s.Add(stB, time.Microsecond)
		s.Release()
	}
}

// BenchmarkSpanEnabled measures the pooled enabled path.
func BenchmarkSpanEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := StartSpan()
		s.Mark(stA)
		s.Add(stB, time.Microsecond)
		s.Release()
	}
}
