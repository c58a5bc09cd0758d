package server

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/crhkit/crh/internal/obs"
)

// latencyBounds are the upper bounds (seconds, inclusive) of the
// resolve-latency histogram buckets; a final implicit +Inf bucket
// catches the rest. Roughly logarithmic, spanning cache hits (~µs) to
// multi-second full resolves. These are obs.DefBuckets, pinned here so
// the JSON stats shape cannot drift if the obs default changes.
var latencyBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// iterationBounds are the upper bounds of the solver-iterations
// histogram's buckets. 20 is the default MaxIters, so a computation that
// ran out of iterations under the defaults lands in the (12, 20] bucket
// and is also counted by crhd_solver_unconverged_total.
var iterationBounds = []float64{1, 2, 3, 5, 8, 12, 20, 30, 50, 100, 200, 500}

// Stages of the resolve pipeline, in request order. Every successful
// resolve carries an obs.Span whose per-stage durations feed the
// crhd_stage_seconds{stage=...} histograms and the sampled stage log.
// The stages overlap deliberately: a coalesced follower accrues
// "coalesce" (its wait on the leader) while the leader accrues "queue"
// and "solve" for the same computation, so stage sums attribute each
// request's own wall time, not machine work.
const (
	stageDecode   obs.Stage = iota // path lookup, body decode, validation
	stageCache                     // results-table probe: hit, join an inflight computation, or lead a new one
	stageCoalesce                  // follower's wait on an identical inflight leader
	stageQueue                     // leader's delay between the probe and solve start
	stageSolve                     // the CRH/baseline computation itself
	stageEncode                    // response shaping and JSON write
	numStages
)

// NumStages is the number of resolve pipeline stages.
const NumStages = int(numStages)

// StageNames names the resolve stages, indexed like StageTimings.Stages.
var StageNames = [NumStages]string{"decode", "cache", "coalesce", "queue", "solve", "encode"}

// Stages of the ingest pipeline, in request order. Every successful
// ingest carries an obs.Span whose per-stage durations feed the
// crhd_ingest_stage_seconds{stage=...} histograms. A memory-only server
// has no wal stage.
const (
	ingestDecode   obs.Stage = iota // path lookup and body decode
	ingestValidate                  // batch validation, including the wait for the dataset's lock
	ingestWAL                       // WAL append, plus the checkpoint every SnapshotEvery batches
	ingestApply                     // claim-log append and the new version's build
	ingestICRH                      // the batch's I-CRH chunk, the warm truths, and the snapshot publish
	numIngestStages
)

// ingestStageNames names the ingest stages, indexed by the constants.
var ingestStageNames = [numIngestStages]string{"decode", "validate", "wal", "apply", "icrh"}

// StageTimings is one sampled resolve request's stage breakdown, handed
// to Config.StageLog. Stages not traversed by the request (coalesce on
// a leader, solve on a cache hit) are zero.
type StageTimings struct {
	// Dataset names the resolved dataset.
	Dataset string
	// Cached and Coalesced mirror the response envelope's serving flags.
	Cached    bool
	Coalesced bool // see Cached
	// Total is the request's end-to-end wall time; Stages its per-stage
	// breakdown, indexed by the stage constants / StageNames.
	Total  time.Duration
	Stages [NumStages]time.Duration // see Total
}

// Stats aggregates the server's operational counters, registry-backed:
// every counter and histogram is an obs metric, so the same numbers feed
// both GET /v1/stats (JSON) and GET /metrics (Prometheus text
// exposition). All fields update atomically; Snapshot may be called at
// any time.
type Stats struct {
	start time.Time

	resolves     *obs.Counter
	ingests      *obs.Counter
	observations *obs.Counter
	creates      *obs.Counter
	deletes      *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	coalesceLeaders   *obs.Counter
	coalesceFollowers *obs.Counter

	// solverIterations and solverUnconverged record each CRH
	// computation's iteration count and whether it stopped at MaxIters
	// without meeting the tolerance.
	solverIterations  *obs.Histogram
	solverUnconverged *obs.Counter

	resolveLatency   *obs.Histogram
	stageHists       [numStages]*obs.Histogram
	ingestStageHists [numIngestStages]*obs.Histogram

	// stageEvery samples the per-request stage log (log every Nth
	// resolve; 0 = off); stageSeq is the sampling counter and stageLog
	// the sink. Set once via EnableStageLog before serving.
	stageEvery int64
	stageSeq   atomic.Int64
	stageLog   func(StageTimings)
}

// NewStats registers the server's metrics on reg and returns the Stats
// anchored at the current time. The metric names are documented in
// docs/OBSERVABILITY.md.
func NewStats(reg *obs.Registry) *Stats {
	s := &Stats{
		start:             time.Now(),
		resolves:          reg.NewCounter(`crhd_requests_total{op="resolve"}`, "API operations served, by operation"),
		ingests:           reg.NewCounter(`crhd_requests_total{op="ingest"}`, "API operations served, by operation"),
		creates:           reg.NewCounter(`crhd_requests_total{op="create"}`, "API operations served, by operation"),
		deletes:           reg.NewCounter(`crhd_requests_total{op="delete"}`, "API operations served, by operation"),
		observations:      reg.NewCounter("crhd_observations_ingested_total", "observations accepted across all ingest batches"),
		cacheHits:         reg.NewCounter("crhd_cache_hits_total", "resolve result cache hits"),
		cacheMisses:       reg.NewCounter("crhd_cache_misses_total", "resolve result cache misses"),
		coalesceLeaders:   reg.NewCounter(`crhd_coalesce_total{role="leader"}`, "resolve computations, by coalescing role"),
		coalesceFollowers: reg.NewCounter(`crhd_coalesce_total{role="follower"}`, "resolve computations, by coalescing role"),
		resolveLatency:    reg.NewHistogram("crhd_resolve_latency_seconds", "end-to-end resolve latency", latencyBounds),
		solverIterations:  reg.NewHistogram("crhd_solver_iterations", "iterations per CRH computation", iterationBounds),
		solverUnconverged: reg.NewCounter("crhd_solver_unconverged_total", "CRH computations that stopped at MaxIters without converging"),
	}
	for st := obs.Stage(0); st < numStages; st++ {
		s.stageHists[st] = reg.NewHistogram(
			`crhd_stage_seconds{stage="`+StageNames[st]+`"}`,
			"per-request resolve latency by pipeline stage", latencyBounds)
	}
	for st := obs.Stage(0); st < numIngestStages; st++ {
		s.ingestStageHists[st] = reg.NewHistogram(
			`crhd_ingest_stage_seconds{stage="`+ingestStageNames[st]+`"}`,
			"per-request ingest latency by pipeline stage", latencyBounds)
	}
	reg.NewGaugeFunc("crhd_uptime_seconds", "seconds since the server started", func() float64 {
		return time.Since(s.start).Seconds()
	})
	reg.NewGaugeFunc("crhd_cache_hit_ratio", "resolve cache hits over lookups since start (omitted before the first lookup)", func() float64 {
		h, m := float64(s.cacheHits.Value()), float64(s.cacheMisses.Value())
		if h+m == 0 {
			// NaN tells the exposition layer to omit the sample: a ratio
			// with no lookups has no value, and emitting NaN (or a fake 0)
			// would mislead strict scrapers. Same rule as empty-histogram
			// quantiles.
			return math.NaN()
		}
		return h / (h + m)
	})
	return s
}

// EnableStageLog turns on the sampled per-request stage log: every
// `every`-th successful resolve's StageTimings goes to fn. Call before
// the server starts handling requests.
func (s *Stats) EnableStageLog(every int, fn func(StageTimings)) {
	if every > 0 && fn != nil {
		s.stageEvery = int64(every)
		s.stageLog = fn
	}
}

// observeSpan folds one successful resolve's span into the stage
// histograms (stages the request did not traverse are skipped, so each
// stage's count is the number of requests that exercised it) and emits
// a sampled stage log record.
func (s *Stats) observeSpan(sp *obs.Span, dataset string, cached, coalesced bool, total time.Duration) {
	for st := obs.Stage(0); st < numStages; st++ {
		if d := sp.Stage(st); d > 0 {
			s.stageHists[st].ObserveDuration(d)
		}
	}
	if s.stageEvery > 0 && s.stageSeq.Add(1)%s.stageEvery == 0 {
		rec := StageTimings{Dataset: dataset, Cached: cached, Coalesced: coalesced, Total: total}
		for st := obs.Stage(0); st < numStages; st++ {
			rec.Stages[st] = sp.Stage(st)
		}
		s.stageLog(rec)
	}
}

// observeSolver records one CRH computation's iteration count and
// convergence.
func (s *Stats) observeSolver(iterations int, converged bool) {
	s.solverIterations.Observe(float64(iterations))
	if !converged {
		s.solverUnconverged.Add(1)
	}
}

// observeIngestSpan folds one successful ingest's span into the ingest
// stage histograms, skipping stages the request did not traverse.
func (s *Stats) observeIngestSpan(sp *obs.Span) {
	for st := obs.Stage(0); st < numIngestStages; st++ {
		if d := sp.Stage(st); d > 0 {
			s.ingestStageHists[st].ObserveDuration(d)
		}
	}
}

// HistogramSnapshot is the JSON shape of a latency histogram:
// per-bucket counts keyed by upper bound in milliseconds, plus totals.
type HistogramSnapshot struct {
	// BoundsMs are the buckets' upper bounds in milliseconds; Buckets[i]
	// counts observations in (BoundsMs[i-1], BoundsMs[i]], with the last
	// element of Buckets (one longer than BoundsMs) the +Inf overflow.
	BoundsMs []float64 `json:"bounds_ms"`
	Buckets  []int64   `json:"buckets"` // see BoundsMs
	// Count and SumMs total the recorded observations and their sum in
	// milliseconds (so mean latency is SumMs/Count).
	Count int64   `json:"count"`
	SumMs float64 `json:"sum_ms"` // see Count
	// P50Ms, P95Ms, and P99Ms are latency quantiles estimated from the
	// buckets by linear interpolation. They are omitted (null) while
	// Count is 0 — an empty histogram has no quantiles, and reporting 0
	// would be indistinguishable from a genuinely instant distribution.
	P50Ms *float64 `json:"p50_ms,omitempty"`
	P95Ms *float64 `json:"p95_ms,omitempty"` // see P50Ms
	P99Ms *float64 `json:"p99_ms,omitempty"` // see P50Ms
}

// histogramJSON converts an obs histogram snapshot (seconds) to the
// stats document's millisecond shape.
func histogramJSON(s obs.HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		BoundsMs: make([]float64, len(s.Bounds)),
		Buckets:  s.Counts,
		Count:    s.Count,
		SumMs:    s.Sum * 1e3,
	}
	for i, b := range s.Bounds {
		out.BoundsMs[i] = b * 1e3
	}
	if s.Count > 0 {
		q := func(p float64) *float64 {
			v := s.Quantile(p) * 1e3
			return &v
		}
		out.P50Ms, out.P95Ms, out.P99Ms = q(0.50), q(0.95), q(0.99)
	}
	return out
}

// StageSnapshot is one pipeline stage's latency distribution in the
// stats document, plus its share of the total stage time.
type StageSnapshot struct {
	HistogramSnapshot
	// ShareOfTotal is this stage's summed latency divided by the summed
	// latency of all stages — "where requests spend their time" as a
	// fraction in [0,1] (0 while no stage has data).
	ShareOfTotal float64 `json:"share_of_total"`
}

// RuntimeSnapshot is the Go process-health section of the stats
// document, sampled via obs.ReadRuntimeHealth.
type RuntimeSnapshot struct {
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// HeapInuseBytes and HeapObjects describe the live heap.
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	HeapObjects    uint64 `json:"heap_objects"` // see HeapInuseBytes
	// GCCycles counts completed collections; GCPauseP99Ms is the p99
	// stop-the-world pause over the runtime's recent-pause ring.
	GCCycles     uint32  `json:"gc_cycles"`
	GCPauseP99Ms float64 `json:"gc_pause_p99_ms"` // see GCCycles
}

// StatsSnapshot is the JSON document served by GET /v1/stats.
type StatsSnapshot struct {
	// UptimeSeconds is the time since the Stats was created.
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Requests counts each API operation served.
	Requests struct {
		Resolves     int64 `json:"resolves"`
		Ingests      int64 `json:"ingests"`
		Observations int64 `json:"observations"`
		Creates      int64 `json:"creates"`
		Deletes      int64 `json:"deletes"`
	} `json:"requests"`

	// Cache reports resolve result hits and misses, the finished results
	// the registered datasets' current versions keep (Size), and the
	// bound on each version's (Capacity).
	Cache struct {
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		HitRate  float64 `json:"hit_rate"`
		Size     int     `json:"size"`
		Capacity int     `json:"capacity"`
	} `json:"cache"`

	// Coalesce reports request-coalescing effectiveness.
	Coalesce struct {
		// Leaders is the number of resolves that actually computed;
		// Followers the number that piggybacked on an identical inflight
		// computation.
		Leaders   int64 `json:"leaders"`
		Followers int64 `json:"followers"`
	} `json:"coalesce"`

	// ResolveLatency is the end-to-end resolve latency distribution.
	ResolveLatency HistogramSnapshot `json:"resolve_latency"`

	// Stages breaks resolve latency down by pipeline stage, keyed by
	// StageNames, each with its share of total stage time.
	Stages map[string]StageSnapshot `json:"stages"`

	// Runtime reports Go process health next to the request stats.
	Runtime RuntimeSnapshot `json:"runtime"`
}

// Snapshot captures the current counters. cacheSize/cacheCap describe the
// snapshots' results tables, which Stats does not own.
func (s *Stats) Snapshot(cacheSize, cacheCap int) StatsSnapshot {
	var out StatsSnapshot
	out.UptimeSeconds = time.Since(s.start).Seconds()
	out.Requests.Resolves = s.resolves.Value()
	out.Requests.Ingests = s.ingests.Value()
	out.Requests.Observations = s.observations.Value()
	out.Requests.Creates = s.creates.Value()
	out.Requests.Deletes = s.deletes.Value()
	out.Cache.Hits = s.cacheHits.Value()
	out.Cache.Misses = s.cacheMisses.Value()
	if total := out.Cache.Hits + out.Cache.Misses; total > 0 {
		out.Cache.HitRate = float64(out.Cache.Hits) / float64(total)
	}
	out.Cache.Size = cacheSize
	out.Cache.Capacity = cacheCap
	out.Coalesce.Leaders = s.coalesceLeaders.Value()
	out.Coalesce.Followers = s.coalesceFollowers.Value()
	out.ResolveLatency = histogramJSON(s.resolveLatency.Snapshot())

	snaps := make([]obs.HistogramSnapshot, numStages)
	var totalSum float64
	for st := obs.Stage(0); st < numStages; st++ {
		snaps[st] = s.stageHists[st].Snapshot()
		totalSum += snaps[st].Sum
	}
	out.Stages = make(map[string]StageSnapshot, numStages)
	for st := obs.Stage(0); st < numStages; st++ {
		share := 0.0
		if totalSum > 0 {
			share = snaps[st].Sum / totalSum
		}
		out.Stages[StageNames[st]] = StageSnapshot{
			HistogramSnapshot: histogramJSON(snaps[st]),
			ShareOfTotal:      share,
		}
	}

	h := obs.ReadRuntimeHealth()
	out.Runtime = RuntimeSnapshot{
		Goroutines:     h.Goroutines,
		HeapInuseBytes: h.HeapInuseBytes,
		HeapObjects:    h.HeapObjects,
		GCCycles:       h.GCCycles,
		GCPauseP99Ms:   float64(h.GCPauseP99) / 1e6,
	}
	return out
}
