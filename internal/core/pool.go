package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shard plan. The truth-update and loss-accumulation phases are
// embarrassingly parallel across entries, but floating-point summation is
// not associative: any scheme whose reduction order depends on the worker
// count produces answers that drift by rounding when the worker count
// changes. The engine therefore partitions the entry range into contiguous
// shards whose boundaries depend only on the entry count — never on
// Workers, GOMAXPROCS, or scheduling — computes an independent partial
// result per shard, and merges the partials in ascending shard order. Any
// worker count, including the sequential path, performs bit-for-bit the
// same additions in the same order. docs/PARALLEL.md states the contract.
const (
	// shardTargetSize is the load-balancing granule: shards hold about
	// this many entries so slow shards (entries with many observers) can
	// be stolen around.
	shardTargetSize = 64
	// maxShards caps the shard count, bounding the per-shard partial
	// matrices the loss accumulation keeps alive at once.
	maxShards = 256
)

// numShards returns the shard count for n entries — a pure function of n,
// which is what makes the reduction order worker-count independent.
func numShards(n int) int {
	if n <= 0 {
		return 0
	}
	s := (n + shardTargetSize - 1) / shardTargetSize
	if s > maxShards {
		s = maxShards
	}
	return s
}

// shardBounds returns shard sh's half-open entry range under an even
// contiguous split of n entries into nsh shards.
func shardBounds(n, sh, nsh int) (lo, hi int) {
	return sh * n / nsh, (sh + 1) * n / nsh
}

// Pool is a reusable, fixed-size worker pool for solver runs. A single
// Pool may be shared by any number of concurrent Run calls — crhd shares
// one across all resolve requests so concurrent requests never
// oversubscribe the machine — because the pool's goroutine count, not the
// per-run worker budget, bounds total solver concurrency. Sharing a pool
// never changes results: the engine's output is bit-for-bit identical for
// every worker count.
//
// The zero value is not usable; create one with NewPool. A nil *Pool is
// valid everywhere a Pool is accepted and means "no shared pool": each
// job starts its own transient helpers.
type Pool struct {
	workers int
	jobs    chan *poolJob
	quit    chan struct{}
	once    sync.Once
}

// poolJob is one parallel region: a bag of n tasks claimed via an
// atomic cursor. The submitting goroutine always works the job too, so a
// job finishes even when every pool worker is busy elsewhere.
type poolJob struct {
	task  func(slot, i int)
	next  atomic.Int64
	slots atomic.Int64 // slots handed out so far
	n     int64
	done  sync.WaitGroup // one count per task
}

// run takes the job's next slot and claims tasks until the bag is
// empty. Each goroutine working the job calls it once.
func (j *poolJob) run() {
	slot := int(j.slots.Add(1) - 1)
	for {
		t := j.next.Add(1) - 1
		if t >= j.n {
			return
		}
		j.task(slot, int(t))
		j.done.Done()
	}
}

// NewPool starts a pool with the given number of worker goroutines
// (0 selects GOMAXPROCS). Close releases them.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		jobs:    make(chan *poolJob, workers),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's goroutine count.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker() {
	for {
		select {
		case j := <-p.jobs:
			j.run()
		case <-p.quit:
			return
		}
	}
}

// Close stops the pool's workers. It must not be called while a Run using
// the pool is in flight; in-flight jobs already claimed keep running to
// completion on the submitting goroutine.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.quit) })
}

// Do executes task(slot, i) for i in 0..n-1 with at most budget
// goroutines working this job concurrently: the caller plus up to
// budget-1 helpers. Each of them has its own slot in [0, budget), which
// it passes to every task it runs, so tasks may use per-slot scratch
// without locking. A pool's helpers are its workers, offered the job
// without blocking — when the pool is saturated by other jobs the
// caller simply does more of the work itself; a nil pool starts its
// helpers as transient goroutines, each exiting once the bag is empty.
// The call returns only when every task has run.
func (p *Pool) Do(n, budget int, task func(slot, i int)) {
	j := &poolJob{task: task, n: int64(n)}
	j.done.Add(n)
	helpers := min(budget, n) - 1
	if p != nil {
		helpers = min(helpers, p.workers)
	}
offer:
	for i := 0; i < helpers; i++ {
		if p == nil {
			go j.run()
			continue
		}
		select {
		case p.jobs <- j:
		default:
			break offer // pool saturated; the caller picks up the slack
		}
	}
	j.run()
	j.done.Wait()
	// An offer no worker took yet stays in the jobs buffer until one
	// does. Every task has been claimed, so that worker never reads the
	// closure: drop it, or it keeps the caller's run reachable.
	j.task = nil
}
