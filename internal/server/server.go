package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/crhkit/crh/internal/baseline"
	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/obs/buildinfo"
	"github.com/crhkit/crh/internal/stream"
	"github.com/crhkit/crh/internal/wal"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// CacheCapacity bounds the finished resolve results each dataset
	// version keeps, least recently used evicted first (default 128;
	// values below 1 keep 1).
	CacheCapacity int
	// Decay is the I-CRH decay rate α for warm incremental state
	// (default 1: retain all history).
	Decay float64
	// SolverWorkers sizes the solver worker pool every CRH computation
	// (resolve requests and warm-ingest re-solves) shares, and so caps
	// total solver concurrency regardless of how many requests are in
	// flight (default GOMAXPROCS). Each resolve additionally gets a
	// per-request budget of SolverWorkers divided by the computations
	// currently in flight, so one request saturates the machine while
	// concurrent requests split it instead of oversubscribing. Worker
	// counts never affect results — the solver is bit-identical for any
	// budget — so caching and coalescing stay sound at every setting.
	SolverWorkers int
	// DataDir, when non-empty, turns on durable ingest: every dataset
	// gets a write-ahead log and snapshots under this directory, and New
	// recovers all datasets found there (docs/DURABILITY.md). Empty
	// keeps the server memory-only.
	DataDir string
	// Fsync picks the WAL fsync policy — "batch" (sync every ingest,
	// the default), "interval" (sync at most every FsyncInterval), or
	// "off" (sync only on rotation and shutdown). Ignored without
	// DataDir.
	Fsync string
	// FsyncInterval is the lower bound between fsyncs under the
	// "interval" policy (default 100ms). See Fsync.
	FsyncInterval time.Duration
	// SnapshotEvery is the checkpoint cadence: a dataset writes a
	// snapshot (and retires covered WAL segments) every N ingested
	// batches. Values ≤ 0 select the default, 128; checkpointing cannot
	// be turned off. See DataDir.
	SnapshotEvery int
	// StageLogEvery samples the per-request stage log: every Nth
	// successful resolve's stage breakdown is handed to StageLog
	// (0 disables). The sampled path allocates one StageTimings; the
	// unsampled path is allocation-free.
	StageLogEvery int
	// StageLog receives the sampled stage breakdowns (crhd wires it to a
	// structured log record). Ignored while StageLogEvery is 0. See
	// StageLogEvery.
	StageLog func(StageTimings)
}

// Server is the crhd HTTP subsystem: the dataset registry, whose
// snapshots coalesce and keep resolve results, plus registry-backed
// metrics behind a net/http handler. Create with New; safe for
// concurrent use.
type Server struct {
	registry *Registry
	// cacheCap bounds the finished results each snapshot keeps.
	cacheCap int
	stats    *Stats
	metrics  *obs.Registry
	mux      *http.ServeMux

	// pool is the shared solver worker pool; solverWorkers its size and
	// inflight the number of resolve computations currently running
	// (coalesced followers and cache hits excluded).
	pool          *core.Pool
	solverWorkers int
	inflight      atomic.Int64
}

// New returns a ready-to-serve Server. With Config.DataDir set it also
// opens the durable store and recovers every dataset found there, so an
// error is possible (bad fsync policy, unreadable data directory,
// corrupt WAL interior).
func New(cfg Config) (*Server, error) {
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 128
	}
	cfg.CacheCapacity = max(cfg.CacheCapacity, 1)
	if cfg.Decay == 0 {
		cfg.Decay = 1
	}
	if cfg.SolverWorkers <= 0 {
		cfg.SolverWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 128
	}
	metrics := obs.NewRegistry()
	s := &Server{
		registry:      NewRegistry(cfg.Decay),
		cacheCap:      cfg.CacheCapacity,
		stats:         NewStats(metrics),
		metrics:       metrics,
		mux:           http.NewServeMux(),
		pool:          core.NewPool(cfg.SolverWorkers),
		solverWorkers: cfg.SolverWorkers,
	}
	// Ingest batches advance warm I-CRH state through the streaming
	// processor; one shared counter set aggregates that load across all
	// datasets. The warm re-solves share the resolve pool so ingest and
	// resolve traffic contend for the same bounded worker budget.
	s.registry.streamCfg.Metrics = stream.NewMetrics(metrics)
	s.registry.streamCfg.Core.Workers = cfg.SolverWorkers
	s.registry.streamCfg.Core.Pool = s.pool
	if cfg.DataDir != "" {
		policy := wal.FsyncBatch
		if cfg.Fsync != "" {
			var err error
			if policy, err = wal.ParseFsyncPolicy(cfg.Fsync); err != nil {
				s.pool.Close()
				return nil, err
			}
		}
		walMetrics := wal.NewMetrics(metrics)
		store, err := wal.OpenStore(cfg.DataDir, wal.Options{
			Fsync:    policy,
			Interval: cfg.FsyncInterval,
			Metrics:  walMetrics,
		})
		if err != nil {
			s.pool.Close()
			return nil, fmt.Errorf("open data dir: %w", err)
		}
		t0 := time.Now()
		if err := s.registry.EnableDurability(store, cfg.SnapshotEvery); err != nil {
			s.pool.Close()
			return nil, err
		}
		walMetrics.RecordRecovery(time.Since(t0))
	}
	s.stats.EnableStageLog(cfg.StageLogEvery, cfg.StageLog)
	obs.RegisterRuntimeMetrics(metrics)
	metrics.NewGaugeFunc("crhd_solver_workers", "size of the shared solver worker pool", func() float64 {
		return float64(s.solverWorkers)
	})
	metrics.NewGaugeFunc("crhd_resolve_inflight", "resolve computations currently running", func() float64 {
		return float64(s.inflight.Load())
	})
	metrics.NewGaugeFunc("crhd_cache_entries", "finished resolve results kept by the registered datasets' current versions", func() float64 {
		return float64(s.registry.cachedResults())
	})
	metrics.NewGaugeFunc("crhd_cache_capacity", "finished resolve results each dataset version keeps at most", func() float64 {
		return float64(s.cacheCap)
	})
	metrics.NewGaugeFunc("crhd_datasets", "datasets currently registered", func() float64 {
		return float64(s.registry.Count())
	})
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthzV1)
	s.mux.Handle("GET /metrics", metrics.Handler())
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/methods", s.handleMethods)
	s.mux.HandleFunc("GET /v1/datasets", s.handleList)
	s.mux.HandleFunc("POST /v1/datasets/{name}", s.handleCreate)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/datasets/{name}/observations", s.handleIngest)
	s.mux.HandleFunc("POST /v1/datasets/{name}/resolve", s.handleResolve)
	s.mux.HandleFunc("GET /v1/datasets/{name}/incremental", s.handleIncremental)
	return s, nil
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the dataset registry (used by crhd for preloading).
func (s *Server) Registry() *Registry { return s.registry }

// Stats exposes the operational counters.
func (s *Server) Stats() *Stats { return s.stats }

// Metrics exposes the server's metric registry — the one behind
// GET /metrics — so the binary can attach process-level gauges.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Close flushes and closes every dataset's WAL (making lazily-synced
// writes durable — the graceful-shutdown flush) and releases the shared
// solver worker pool. Call it after the HTTP server has drained; it must
// not run concurrently with live requests. The returned error is the
// first WAL close failure — a shutdown that may have lost the log tail.
func (s *Server) Close() error {
	err := s.registry.CloseDurable()
	s.pool.Close()
	return err
}

// solverBudget splits the pool across the n computations now in flight:
// a lone request gets every worker, concurrent ones fair shares, and
// nobody drops below one (the sequential floor).
func (s *Server) solverBudget(n int64) int {
	if n < 1 {
		n = 1
	}
	w := s.solverWorkers / int(n)
	if w < 1 {
		w = 1
	}
	return w
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// HealthResponse is the JSON document served by GET /v1/healthz:
// liveness plus enough identity to tell which build is answering.
type HealthResponse struct {
	// Status is "ok" whenever the handler runs at all.
	Status string `json:"status"`
	// Datasets counts the currently registered datasets (readiness: a
	// preloading server reports 0 until its datasets are in).
	Datasets int `json:"datasets"`
	// Build identifies the running binary.
	Build buildinfo.Info `json:"build"`
}

func (s *Server) handleHealthzV1(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Datasets: s.registry.Count(),
		Build:    buildinfo.Read(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.Snapshot(s.registry.cachedResults(), s.cacheCap))
}

func (s *Server) handleMethods(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"methods": append([]string{MethodCRH}, baseline.Names()...),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.registry.List()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, err := s.registry.Create(name, r.Body)
	switch {
	case errors.Is(err, errExists):
		writeError(w, http.StatusConflict, "dataset %q already exists", name)
		return
	case errors.Is(err, errBadName):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, errDurable):
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "decode dataset: %v", err)
		return
	}
	s.stats.creates.Add(1)
	writeJSON(w, http.StatusCreated, e.Info())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := s.registry.Delete(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", r.PathValue("name"))
		return
	}
	if err != nil {
		// The dataset is gone from the registry but its on-disk state
		// could not be fully removed; report the failure.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.stats.deletes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// ingestRequest is the JSON body of POST /v1/datasets/{name}/observations.
type ingestRequest struct {
	Observations []Observation `json:"observations"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Like resolve's span, error paths just release it: the stage
	// histograms describe applied batches.
	sp := obs.StartSpan()
	defer sp.Release()
	e, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", r.PathValue("name"))
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode observations: %v", err)
		return
	}
	sp.Mark(ingestDecode)
	version, err := e.Ingest(req.Observations, sp)
	switch {
	case errors.Is(err, errNotFound):
		// The handle was fetched before a concurrent delete landed.
		writeError(w, http.StatusNotFound, "dataset %q not found", r.PathValue("name"))
		return
	case errors.Is(err, errDurable):
		writeError(w, http.StatusInternalServerError, "ingest: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	s.stats.ingests.Add(1)
	s.stats.observations.Add(int64(len(req.Observations)))
	s.stats.observeIngestSpan(sp)
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":  e.name,
		"version":  version,
		"ingested": len(req.Observations),
	})
}

// resolveEnvelope wraps the shared immutable result with per-request
// serving metadata. It is the wire shape of every resolve response; the
// serve path renders it from an envPrefix constant plus the result's
// precomputed body bytes (encode.go), never through this struct — it
// exists as the schema of record and for clients/tests to decode into.
type resolveEnvelope struct {
	// Cached reports a result the snapshot already held; Coalesced that
	// this request shared another identical inflight request's
	// computation.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	*ResolveResponse
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.stats.resolveLatency.ObserveDuration(time.Since(t0)) }()
	s.stats.resolves.Add(1)
	// The span carries this request's stage timeline. Error paths just
	// release it: stage histograms describe served results, so the
	// smoke gate's "every stage non-empty" assertion stays meaningful.
	sp := obs.StartSpan()
	defer sp.Release()

	e, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", r.PathValue("name"))
		return
	}
	// An empty body, however framed, selects the defaults.
	req := &ResolveRequest{}
	if err := json.NewDecoder(r.Body).Decode(req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "decode resolve request: %v", err)
		return
	}
	req.normalize()
	method, err := req.validate()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp.Mark(stageDecode)

	// The snapshot pins the dataset version for the whole computation:
	// concurrent ingest installs new snapshots but never mutates this one.
	// Its results table serves a finished computation, joins an in-flight
	// one, or makes this request the leader of a new one.
	snap := e.Snapshot()
	c, cached, leader := snap.results.get(cacheKey(req))
	if cached {
		s.stats.cacheHits.Add(1)
		sp.Mark(stageCache)
		tEnc := time.Now()
		writeResolveEnvelope(w, envPrefixCached, c.body)
		sp.Add(stageEncode, time.Since(tEnc))
		s.stats.observeSpan(sp, e.name, true, false, time.Since(t0))
		return
	}
	s.stats.cacheMisses.Add(1)
	sp.Mark(stageCache)

	if leader {
		body, err := s.solve(sp, e.name, snap, req, method)
		snap.results.finish(c, body, err, s.cacheCap)
	} else {
		// A follower's whole wait on the leader is its coalesce stage.
		tWait := time.Now()
		snap.results.wait(c)
		sp.Add(stageCoalesce, time.Since(tWait))
	}
	if c.err != nil {
		writeError(w, resolveErrorStatus(c.err), "resolve: %v", c.err)
		return
	}
	prefix := envPrefixPlain
	if leader {
		s.stats.coalesceLeaders.Add(1)
	} else {
		s.stats.coalesceFollowers.Add(1)
		prefix = envPrefixCoalesced
	}
	tEnc := time.Now()
	writeResolveEnvelope(w, prefix, c.body)
	sp.Add(stageEncode, time.Since(tEnc))
	s.stats.observeSpan(sp, e.name, false, !leader, time.Since(t0))
}

// solve is a leader's computation: it runs the requested method on the
// snapshot and encodes the response body exactly once, so the bytes are
// shared by the snapshot's results table, every coalesced follower, and
// the leader's own write. sp receives the queue (inflight registration
// and budget split), solve and encode stages.
func (s *Server) solve(sp *obs.Span, name string, snap *Snapshot, req *ResolveRequest, method baseline.Method) ([]byte, error) {
	tQueue := time.Now()
	// The worker budget is settled at compute start: the pool split by
	// the computations then in flight. Later arrivals shrink only their
	// own budgets (and totals are bounded by the pool anyway).
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	workers := s.solverBudget(n)
	sp.Add(stageQueue, time.Since(tQueue))
	tSolve := time.Now()
	resp, err := compute(name, snap, req, method, workers, s.pool)
	sp.Add(stageSolve, time.Since(tSolve))
	if err != nil {
		return nil, err
	}
	if resp.Converged != nil { // a CRH computation
		s.stats.observeSolver(resp.Iterations, *resp.Converged)
	}
	tEnc := time.Now()
	body := encodeResolveBody(resp)
	sp.Add(stageEncode, time.Since(tEnc))
	return body, nil
}

// resolveErrorStatus maps a compute failure onto HTTP: a broken
// server-side invariant (errInternal — e.g. a method returning malformed
// weights) is a 500, while a valid request the solver cannot satisfy
// (empty dataset, divergent configuration) stays a 422.
func resolveErrorStatus(err error) int {
	if errors.Is(err, errInternal) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// compute runs the requested method on a pinned snapshot and shapes the
// response. It holds no locks — the snapshot is immutable. workers and
// pool carry the request's solver budget and the server's shared pool;
// neither influences the result (the solver is bit-identical for any
// worker count), only how fast it arrives.
func compute(name string, snap *Snapshot, req *ResolveRequest, method baseline.Method, workers int, pool *core.Pool) (*ResolveResponse, error) {
	resp := &ResolveResponse{Dataset: name, Version: snap.Version, Method: req.Method}
	d := snap.Data
	var truths *data.Table
	var weights []float64
	if method != nil {
		truths, weights = method.Resolve(d)
	} else {
		cfg, err := req.Options.build()
		if err != nil {
			return nil, err
		}
		cfg.Workers, cfg.Pool = workers, pool
		res, err := snap.Prepared().Run(cfg)
		if err != nil {
			return nil, err
		}
		truths, weights = res.Truths, res.Weights
		converged := res.Converged
		resp.Converged = &converged
		resp.Iterations = res.Iterations
		if req.Options.Confidence {
			resp.Truths = truthsJSON(d, truths, res.Confidence)
		}
	}
	if resp.Truths == nil {
		resp.Truths = truthsJSON(d, truths, nil)
	}
	if weights != nil {
		// A weight-count mismatch means the method broke its contract
		// (one weight per source); serving a truncated weights map would
		// silently misattribute reliability, so fail loudly instead.
		if len(weights) != d.NumSources() {
			return nil, fmt.Errorf("%w: method %s returned %d weights for %d sources",
				errInternal, req.Method, len(weights), d.NumSources())
		}
		ws := make(SourceWeights, d.NumSources())
		for k := range ws {
			ws[k] = SourceWeight{Name: d.SourceName(k), Weight: weights[k]}
		}
		// Wire order is name-sorted (options.go); source index order is
		// insertion order, which need not agree.
		sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
		resp.Weights = ws
	}
	return resp, nil
}

// truthsJSON flattens a truth table into the response shape, in object
// then property order. confidence may be nil.
func truthsJSON(d *data.Dataset, t *data.Table, confidence []float64) []TruthJSON {
	out := make([]TruthJSON, 0, t.Count())
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			v, ok := t.GetAt(i, m)
			if !ok {
				continue
			}
			p := d.Prop(m)
			tj := TruthJSON{Object: d.ObjectName(i), Property: p.Name}
			if p.Type == data.Categorical {
				tj.Value = TruthValue{IsCat: true, Cat: p.CatName(int(v.C))}
			} else {
				tj.Value = TruthValue{F: v.F}
			}
			if confidence != nil {
				c := confidence[d.Entry(i, m)]
				tj.Confidence = &c
			}
			out = append(out, tj)
		}
	}
	return out
}

func (s *Server) handleIncremental(w http.ResponseWriter, r *http.Request) {
	e, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", r.PathValue("name"))
		return
	}
	// One WarmState call returns the version alongside the state it
	// describes; reading e.Snapshot().Version separately would race with
	// concurrent ingest and could pair a newer version with older truths.
	version, truths, weights, chunks := e.WarmState()
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": e.name,
		"version": version,
		"chunks":  chunks,
		"truths":  truths,
		"weights": weights,
	})
}
