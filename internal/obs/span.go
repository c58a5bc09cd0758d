package obs

import (
	"sync"
	"time"
)

// SpanStages is the fixed stage capacity of a Span. Callers define their
// own Stage constants in [0, SpanStages); the server's resolve pipeline
// uses six of them (docs/OBSERVABILITY.md, "Per-request stage spans").
const SpanStages = 8

// Stage indexes one stage of a Span's timeline. Stages are small
// integers owned by the instrumented subsystem — obs assigns them no
// meaning beyond a slot in the duration table.
type Stage uint8

// Span is a lightweight per-request stage timeline: a fixed table of
// per-stage durations plus the time of the last mark. It is the
// request-granular sibling of the per-iteration SolverTrace — where the
// solver trace explains one computation, a span explains where one
// request's latency went (cache lookup vs. coalesce wait vs. solve).
//
// A nil *Span is valid on every method and records nothing, which is
// what makes instrumentation free when disabled: the instrumented path
// calls the same methods either way, and the nil path is allocation-free
// (enforced by the //crh:hotpath annotations and the AllocsPerRun
// assertion in span_test.go).
//
// Spans are pooled: StartSpan draws from a sync.Pool and Release returns
// to it, so the enabled steady state allocates nothing either. A Span is
// owned by one goroutine at a time; handing it to another (a coalescing
// leader writing a follower's wait, say) requires external ordering.
type Span struct {
	last time.Time
	dur  [SpanStages]time.Duration
}

// spanPool recycles Spans so the enabled path stops allocating once the
// pool is warm.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// StartSpan returns a zeroed Span anchored at the current time. Pair
// with Release.
func StartSpan() *Span {
	s := spanPool.Get().(*Span)
	s.last = time.Now()
	s.dur = [SpanStages]time.Duration{}
	return s
}

// Release returns the span to the pool. The caller must not touch the
// span afterwards. Safe on nil (a no-op — the disabled path releases
// like the enabled one).
func (s *Span) Release() {
	if s == nil {
		return
	}
	spanPool.Put(s)
}

// Mark attributes the time since the previous mark (or the span start)
// to stage st and advances the mark point. Repeated marks of the same
// stage accumulate.
//
//crh:hotpath
func (s *Span) Mark(st Stage) {
	if s == nil {
		return
	}
	now := time.Now()
	s.dur[st] += now.Sub(s.last)
	s.last = now
}

// Add attributes an externally measured duration to stage st without
// moving the mark point — for intervals timed on another goroutine or
// overlapping the marked timeline (a coalesced follower's wait, say).
//
//crh:hotpath
func (s *Span) Add(st Stage, d time.Duration) {
	if s == nil {
		return
	}
	s.dur[st] += d
}

// Stage returns the duration accumulated against st (zero on nil).
//
//crh:hotpath
func (s *Span) Stage(st Stage) time.Duration {
	if s == nil {
		return 0
	}
	return s.dur[st]
}
