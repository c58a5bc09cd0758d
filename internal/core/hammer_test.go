package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunHammerSharedPool drives many concurrent Run calls through one
// shared Pool with mixed worker budgets — the exact load shape crhd puts
// on the solver — and requires every result to stay bit-identical to
// the sequential reference. Run under the race detector by `make
// racehammer`, this is the proof that pool sharing neither races nor
// perturbs a single bit of output.
func TestRunHammerSharedPool(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 10, 200, 0.3}, 29)
	ref, err := Run(d, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				workers := 1 + (g+r)%8
				got, err := Run(d, Config{Workers: workers, Pool: pool})
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				for e := 0; e < d.NumEntries(); e++ {
					rv, rok := ref.Truths.Get(e)
					gv, gok := got.Truths.Get(e)
					if rok != gok || rv.C != gv.C || !bitsEq(rv.F, gv.F) {
						t.Errorf("goroutine %d round %d workers=%d: entry %d diverged", g, r, workers, e)
						return
					}
				}
				for k := range ref.Weights {
					if !bitsEq(ref.Weights[k], got.Weights[k]) {
						t.Errorf("goroutine %d round %d workers=%d: weight %d diverged", g, r, workers, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolConcurrentDo hammers the pool primitive itself: overlapping Do
// calls with budgets larger than the pool must each run all their tasks
// exactly once.
func TestPoolConcurrentDo(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	const callers = 6
	const tasks = 512
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				hits := make([]int, tasks)
				pool.Do(tasks, 1+(c+round)%9, func(_, i int) { hits[i]++ })
				for i, h := range hits {
					if h != 1 {
						t.Errorf("caller %d round %d: task %d ran %d times", c, round, i, h)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPoolDoSlots pins the slot contract the solver's per-worker
// scratch relies on, for a shared pool and for a nil one, at budgets
// 1–9: every task runs with a slot below the budget, and no two tasks
// running at once hold the same slot. Each task holds its slot a moment
// so that tasks of different goroutines overlap.
func TestPoolDoSlots(t *testing.T) {
	shared := NewPool(4)
	defer shared.Close()
	for _, c := range []struct {
		name string
		pool *Pool
	}{{"shared", shared}, {"nil", nil}} {
		for budget := 1; budget <= 9; budget++ {
			busy := make([]atomic.Bool, budget)
			c.pool.Do(64, budget, func(slot, i int) {
				if slot < 0 || slot >= budget {
					t.Errorf("%s pool, budget %d: task %d ran in slot %d", c.name, budget, i, slot)
					return
				}
				if !busy[slot].CompareAndSwap(false, true) {
					t.Errorf("%s pool, budget %d: task %d shares slot %d with a running task", c.name, budget, i, slot)
					return
				}
				time.Sleep(20 * time.Microsecond)
				busy[slot].Store(false)
			})
		}
	}
}

// TestPoolCloseIdempotent: Close must be safe to call twice and must not
// wedge Do calls issued before it on other goroutines' completed jobs.
func TestPoolCloseIdempotent(t *testing.T) {
	pool := NewPool(2)
	done := make([]int, 64)
	pool.Do(len(done), 4, func(_, i int) { done[i] = 1 })
	for i, v := range done {
		if v != 1 {
			t.Fatalf("task %d did not run", i)
		}
	}
	pool.Close()
	pool.Close()
	if pool.Workers() != 2 {
		t.Fatalf("Workers() = %d after Close, want 2", pool.Workers())
	}
	// Do after Close must still complete: the submitting goroutine picks
	// up every task itself when no worker accepts the job.
	ran := 0
	pool.Do(8, 4, func(int, int) { ran++ })
	if ran != 8 {
		t.Fatalf("post-Close Do ran %d of 8 tasks", ran)
	}
}
