package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	createPath  = "/v1/datasets/" + datasetName
	resolvePath = createPath + "/resolve"
	ingestPath  = createPath + "/observations"
	// coldRotation distinct max_iters values (coldIterBase upwards) make
	// resolve-cold's requests, in turn: a request's key was last used
	// coldRotation ops before, and crhd's two-entry cache and at most one
	// other request in flight hold none of the keys since, so each request
	// misses. All are above the iterations the Flight solve converges in,
	// so each returns the same bytes.
	coldRotation = 6
	coldIterBase = 21
)

// defaultResolve asks for CRH with the paper's defaults.
var defaultResolve = []byte("{}")

// runner executes one run: inputs first, then as many rounds as the
// requested seconds hold at the workload's nominal round length, then
// (traced runs only) the in-process layer replays.
type runner struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	bin     string
	// build is <root>/.bench_build; work the run's own directory in it.
	build, work string
	start       time.Time
	// boots counts the crhds booted so far; it numbers them.
	boots int

	in         *inputs
	spans      *spanLog
	coldBodies [][]byte
}

// round is one timed phase of a fixed number of ops and what it
// measured. Each round runs in a fresh crhd, after its set-up and
// warm-up.
type round struct {
	traced bool
	// crhd numbers the crhd that served the round.
	crhd int
	// setup is what the crhd's set-up took.
	setup setup
	wall  time.Duration
	// cpuS is the CPU time crhd used during the timed phase; on
	// ingest-resolve, ingestCPU and resolveCPU are the parts of it used
	// during the ingest and the resolve calls.
	cpuS, ingestCPU, resolveCPU float64
	// ingestCPUMs lists each timed ingest's CPU time in op order.
	ingestCPUMs []float64
	// ops counts the timed ops and attempted all ops, warm-up included;
	// failed counts every failed op and check, timedFailed the timed ops
	// that failed.
	ops, attempted      int
	failed, timedFailed int
	// Client-observed latencies of the timed ops that succeeded.
	resolveMs, ingestMs, opMs []float64
	// ttfbMs and bodyMs split traced resolves at the first response byte.
	ttfbMs, bodyMs    []float64
	cached, coalesced int
	// before and after are crhd's /metrics around the timed phase.
	before, after scrape
	rssMiB        float64
	quality       quality
	firstErr      error
}

func (r *runner) run(ctx context.Context) (*result, error) {
	w := r.w
	nbatches := 0
	if w.ingest {
		nbatches = w.warmup + w.opsPerRound
	}
	t0 := time.Now()
	in, err := makeInputs(r.seed, nbatches)
	if err != nil {
		return nil, err
	}
	r.in = in
	for i := 0; i < coldRotation; i++ {
		r.coldBodies = append(r.coldBodies, []byte(fmt.Sprintf(`{"options":{"max_iters":%d}}`, coldIterBase+i)))
	}
	res := &result{w: w, seed: r.seed, traced: r.traced, in: in, inputS: time.Since(t0).Seconds()}
	if w.ingest {
		res.timedFirst, res.timedLast = in.marks[w.warmup+1], in.marks[len(in.marks)-1]
	} else {
		res.timedFirst, res.timedLast = in.marks[0], in.marks[0]
	}

	r.work = filepath.Join(r.build, fmt.Sprintf("run-%s-%d-%d", w.name, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)
	res.record = newRunRecord(r.work, w)
	if r.traced {
		r.spans = newSpanLog(r.start)
	}

	// The round count is fixed here, from -seconds: fixed op counts,
	// never fixed durations. A traced run alternates untraced and traced
	// crhds; the untraced rounds give the tracing overhead.
	rounds := max(minRounds, int(math.Round(float64(r.seconds)/w.roundS)))
	if r.traced {
		rounds = max(rounds, minRounds+1)
	}
	steal0, total0, ok0 := cpuTicks()
	// setUp boots set-up-only crhds until the run holds n set-ups.
	setUp := func(n int) error {
		for len(res.setups) < n {
			su, err := r.setupOnly(ctx)
			if err != nil {
				return fmt.Errorf("set-up %d: %w", len(res.setups)+1, err)
			}
			res.setups = append(res.setups, su)
		}
		return nil
	}
	for i := 0; i < rounds && (i < minRounds || time.Since(r.start) <= roundBudget); i++ {
		rd, err := r.serve(ctx, r.traced && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("crhd %d: %w", r.boots, err)
		}
		res.rounds = append(res.rounds, rd)
		res.setups = append(res.setups, rd.setup)
		// Set-up-only boots go between the rounds, so that the set-ups
		// and the rounds both spread over the whole run and meet the
		// machine in the same states.
		if err := setUp((i + 1) * w.setups / rounds); err != nil {
			return nil, err
		}
	}
	if err := setUp(w.setups); err != nil {
		return nil, err
	}
	steal1, total1, ok1 := cpuTicks()
	res.record.stealPct = stealShare(steal0, total0, ok0, steal1, total1, ok1)

	if r.traced {
		// Every crhd has stopped: the replays get both cores.
		res.replay, err = replayLayers(in, res.timedFirst, res.timedLast, w.workers, r.spans)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(r.build, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res.spanFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, r.seed))
		if err := r.spans.writeFile(res.spanFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.selfTimes = r.spans.selfTimes()
	}
	return res, nil
}

// worker is one closed-loop connection's state during a timed phase.
type worker struct {
	buf                       bytes.Buffer
	resolveMs, ingestMs, opMs []float64
	ttfbMs, bodyMs            []float64
	// ingestCPU and resolveCPU sum the CPU seconds crhd used during each
	// kind of call of an ingest-resolve cycle; ingestCPUMs lists the
	// ingests' shares, in milliseconds, in op order.
	ingestCPU, resolveCPU     float64
	ingestCPUMs               []float64
	failed, cached, coalesced int
	firstErr                  error
	// final keeps the last op's resolve response (ingest-resolve).
	final []byte
}

func (wk *worker) fail(err error) {
	wk.failed++
	if wk.firstErr == nil {
		wk.firstErr = err
	}
}

// setup is what one set-up took: its wall time, from crhd listening to
// the set-up resolve's last byte, the CPU time crhd used in it, and
// crhd's peak RSS when it ended.
type setup struct{ wallS, cpuS, rssMiB float64 }

// boot starts a fresh crhd (with its own data directory on
// ingest-resolve) and sets the dataset up: create, then one resolve. It
// returns crhd, a client for it, what the set-up took and the set-up
// resolve's response. stop shuts crhd down and removes the data
// directory.
func (r *runner) boot(ctx context.Context) (p *crhdProc, c *client, su setup, body []byte, stop func(), err error) {
	r.boots++
	args := r.w.args
	dir := ""
	if r.w.ingest {
		dir = filepath.Join(r.work, fmt.Sprintf("data%d", r.boots))
		args = append([]string{"-data-dir", dir}, args...)
	}
	p, err = startCrhd(ctx, r.bin, args)
	if err != nil {
		return nil, nil, su, nil, nil, err
	}
	cpu0, err := p.cpuSeconds()
	if err != nil {
		p.stop()
		return nil, nil, su, nil, nil, err
	}
	c = newClient(p.addr, r.w.conns)
	stop = func() {
		c.close()
		p.stop()
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			}
		}
	}
	var buf bytes.Buffer
	cr, err := c.do(ctx, http.MethodPost, createPath, r.in.upload, &buf, nil, "", 0)
	if err == nil && cr.status != http.StatusCreated {
		err = fmt.Errorf("status %d: %.200s", cr.status, buf.Bytes())
	}
	if err != nil {
		stop()
		return nil, nil, su, nil, nil, fmt.Errorf("set-up create: %w", err)
	}
	sr, err := c.do(ctx, http.MethodPost, resolvePath, defaultResolve, &buf, nil, "", 0)
	if err == nil && sr.status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", sr.status, buf.Bytes())
	}
	if err != nil {
		stop()
		return nil, nil, su, nil, nil, fmt.Errorf("set-up resolve: %w", err)
	}
	cpu1, err := p.cpuSeconds()
	if err != nil {
		stop()
		return nil, nil, su, nil, nil, err
	}
	su = setup{wallS: sr.end.Sub(p.ready).Seconds(), cpuS: cpu1 - cpu0}
	if su.rssMiB, err = p.peakRSSMiB(); err != nil {
		stop()
		return nil, nil, su, nil, nil, err
	}
	return p, c, su, bytes.Clone(buf.Bytes()), stop, nil
}

// setupOnly boots crhd, sets the dataset up and stops: one more setup_s
// sample.
func (r *runner) setupOnly(ctx context.Context) (setup, error) {
	_, _, su, _, stop, err := r.boot(ctx)
	if err != nil {
		return su, err
	}
	stop()
	return su, nil
}

// serve boots a fresh crhd, sets the dataset up, runs the warm-up and
// then one round of timed ops, and checks the final state, counting the
// check in the round. A set-up failure aborts the run; a failed op is
// counted and the round goes on.
func (r *runner) serve(ctx context.Context, traced bool) (*round, error) {
	w, in := r.w, r.in
	var sp *spanLog
	if traced {
		sp = r.spans
	}
	p, c, su, setupBody, stop, err := r.boot(ctx)
	if err != nil {
		return nil, err
	}
	defer stop()
	_, _, refRest, ok := splitEnvelope(setupBody)
	if !ok {
		return nil, fmt.Errorf("set-up resolve: response lacks the cached/coalesced envelope")
	}

	// Warm-up and timed ops share one numbering: op i resolves with
	// rotation entry i, or ingests batch i.
	op := func(wk []worker, sp *spanLog, offset int) func(wi, i int) {
		return func(wi, i int) {
			if w.ingest {
				r.cycle(ctx, c, p, &wk[wi], offset+i, sp)
			} else {
				r.resolve(ctx, c, &wk[wi], offset+i, sp, refRest)
			}
		}
	}
	warm := newWorkers(w.conns, len(setupBody))
	closedLoop(w.conns, w.warmup, op(warm, nil, 0))

	rd := &round{traced: traced, crhd: r.boots, setup: su, ops: w.opsPerRound, attempted: w.warmup + w.opsPerRound}
	var buf bytes.Buffer
	if rd.before, err = c.metrics(ctx, &buf); err != nil {
		return nil, err
	}
	timed := newWorkers(w.conns, len(setupBody))
	// The load generator's own collector stays off while it measures:
	// its live heap holds the inputs, and a cycle over it would compete
	// with crhd for the two cores. A timed phase allocates a few MiB.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	cpu0, err := p.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rd.wall = closedLoop(w.conns, w.opsPerRound, op(timed, sp, w.warmup))
	cpu1, err := p.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rd.cpuS = cpu1 - cpu0
	debug.SetGCPercent(gc)
	if rd.after, err = c.metrics(ctx, &buf); err != nil {
		return nil, err
	}
	if rd.rssMiB, err = p.peakRSSMiB(); err != nil {
		return nil, err
	}
	for _, wk := range [][]worker{warm, timed} {
		for i := range wk {
			rd.failed += wk[i].failed
			if rd.firstErr == nil {
				rd.firstErr = wk[i].firstErr
			}
		}
	}
	for i := range timed {
		wk := &timed[i]
		rd.timedFailed += wk.failed
		rd.resolveMs = append(rd.resolveMs, wk.resolveMs...)
		rd.ingestMs = append(rd.ingestMs, wk.ingestMs...)
		rd.opMs = append(rd.opMs, wk.opMs...)
		rd.ttfbMs = append(rd.ttfbMs, wk.ttfbMs...)
		rd.bodyMs = append(rd.bodyMs, wk.bodyMs...)
		rd.cached += wk.cached
		rd.coalesced += wk.coalesced
		rd.ingestCPU += wk.ingestCPU
		rd.resolveCPU += wk.resolveCPU
		rd.ingestCPUMs = append(rd.ingestCPUMs, wk.ingestCPUMs...)
	}
	if !w.ingest {
		rd.resolveCPU = rd.cpuS
	}

	// The final state must match the in-process solve. On the resolve
	// workloads every response already equals the set-up one.
	final, version := setupBody, int64(1)
	if w.ingest {
		final, version = timed[0].final, int64(len(in.batches)+1)
	}
	if final == nil {
		rd.failed++ // the last cycle failed, so there is no final state to check
	} else if rd.quality, err = checkFinal(final, in, version); err != nil {
		rd.failed++
		if rd.firstErr == nil {
			rd.firstErr = fmt.Errorf("final state: %w", err)
		}
	}
	return rd, nil
}

func newWorkers(n, bodyLen int) []worker {
	wk := make([]worker, n)
	for i := range wk {
		wk[i].buf.Grow(bodyLen + 64<<10)
	}
	return wk
}

// resolve is one resolve-workload op: a resolve whose response must be
// 200 and carry the set-up response's body bytes.
func (r *runner) resolve(ctx context.Context, c *client, wk *worker, i int, sp *spanLog, refRest []byte) {
	body := defaultResolve
	if r.w.cold {
		body = r.coldBodies[i%len(r.coldBodies)]
	}
	call, err := c.do(ctx, http.MethodPost, resolvePath, body, &wk.buf, sp, "http.resolve", sp.newRequest())
	if err == nil {
		err = wk.checkResolve(call, refRest, 0, r.w.cold)
	}
	if err != nil {
		wk.fail(err)
		return
	}
	wk.resolveMs = append(wk.resolveMs, call.ms())
	wk.opMs = append(wk.opMs, call.ms())
	wk.traced(call, sp)
}

// cycle is one ingest-resolve op: ingest batch i, then resolve the version
// it created. It reads crhd's CPU time around each call, which the one
// connection of the workload makes crhd's only request in flight.
func (r *runner) cycle(ctx context.Context, c *client, p *crhdProc, wk *worker, i int, sp *spanLog) {
	want := int64(i + 2) // the set-up created version 1
	req := sp.newRequest()
	cpu0, err := p.cpuSeconds()
	if err != nil {
		wk.fail(err)
		return
	}
	ack, err := c.do(ctx, http.MethodPost, ingestPath, r.in.batches[i].body, &wk.buf, sp, "http.ingest", req)
	if err == nil && ack.status != http.StatusOK {
		err = fmt.Errorf("ingest: status %d: %.200s", ack.status, wk.buf.Bytes())
	}
	if v, ok := jsonVersion(wk.buf.Bytes()); err == nil && (!ok || v != want) {
		err = fmt.Errorf("ingest acknowledged version %d, want %d", v, want)
	}
	if err != nil {
		wk.fail(err)
		return
	}
	cpu1, err := p.cpuSeconds()
	if err != nil {
		wk.fail(err)
		return
	}
	res, err := c.do(ctx, http.MethodPost, resolvePath, defaultResolve, &wk.buf, sp, "http.resolve", req)
	if err == nil {
		err = wk.checkResolve(res, nil, want, false)
	}
	if err != nil {
		wk.fail(err)
		return
	}
	cpu2, err := p.cpuSeconds()
	if err != nil {
		wk.fail(err)
		return
	}
	wk.ingestMs = append(wk.ingestMs, ack.ms())
	wk.resolveMs = append(wk.resolveMs, res.ms())
	wk.opMs = append(wk.opMs, ms(res.end.Sub(ack.start)))
	wk.ingestCPU += cpu1 - cpu0
	wk.resolveCPU += cpu2 - cpu1
	wk.ingestCPUMs = append(wk.ingestCPUMs, 1000*(cpu1-cpu0))
	wk.traced(res, sp)
	if i == len(r.in.batches)-1 {
		wk.final = bytes.Clone(wk.buf.Bytes())
	}
}

// checkResolve checks a resolve response in wk.buf: status 200, crhd's
// envelope, and either the reference body bytes (ref non-nil) or the
// wanted dataset version. With miss set, the response must also have
// been solved for this request: resolve-cold measures the solver only
// while every request misses crhd's cache, so a cached or coalesced
// response fails the check rather than read as a speed-up.
func (wk *worker) checkResolve(c call, ref []byte, version int64, miss bool) error {
	b := wk.buf.Bytes()
	if c.status != http.StatusOK {
		return fmt.Errorf("resolve: status %d: %.200s", c.status, b)
	}
	cached, coalesced, rest, ok := splitEnvelope(b)
	if !ok {
		return fmt.Errorf("resolve: response lacks the cached/coalesced envelope")
	}
	if cached {
		wk.cached++
	}
	if coalesced {
		wk.coalesced++
	}
	if miss && (cached || coalesced) {
		return fmt.Errorf("resolve: served cached=%v coalesced=%v on a workload whose every request must miss the cache", cached, coalesced)
	}
	if ref != nil {
		if !bytes.Equal(rest, ref) {
			return fmt.Errorf("resolve: %d-byte body differs from the first response's %d bytes", len(rest), len(ref))
		}
		return nil
	}
	if v, ok := jsonVersion(rest); !ok || v != version {
		return fmt.Errorf("resolve: version %d, want %d", v, version)
	}
	return nil
}

// traced records a traced resolve's split at the first response byte.
func (wk *worker) traced(c call, sp *spanLog) {
	if sp == nil || c.wrote.IsZero() {
		return
	}
	wk.ttfbMs = append(wk.ttfbMs, ms(c.first.Sub(c.wrote)))
	wk.bodyMs = append(wk.bodyMs, ms(c.end.Sub(c.first)))
}

// metrics scrapes crhd's /metrics.
func (c *client) metrics(ctx context.Context, buf *bytes.Buffer) (scrape, error) {
	r, err := c.do(ctx, http.MethodGet, "/metrics", nil, buf, nil, "", 0)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("status %d", r.status)
	}
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseMetrics(buf)
}
