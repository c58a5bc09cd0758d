package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// The columnar solver's allocation contract: every buffer an iteration
// touches is allocated during setup, so once the loop is running,
// additional iterations allocate nothing. The pin measures whole runs at
// two iteration budgets — any per-iteration allocation would make the
// longer run's total strictly larger.

// iterAllocDelta returns the allocations one extra solver iteration
// costs under cfg: the difference between a long and a short run,
// normalized per added iteration. Tol is forced to -Inf so neither run
// converges early and the iteration counts are exact.
func iterAllocDelta(t *testing.T, p *Prepared, cfg Config, short, long int) float64 {
	t.Helper()
	runAllocs := func(iters int) float64 {
		c := cfg
		c.MaxIters = iters
		c.Tol = math.Inf(-1)
		c.Workers = 1
		// 20 samples: AllocsPerRun floors its average, so small sample
		// counts can turn setup-allocation jitter into a spurious ±1.
		return testing.AllocsPerRun(20, func() {
			res, err := p.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != iters {
				t.Fatalf("ran %d iterations, want %d", res.Iterations, iters)
			}
		})
	}
	return (runAllocs(long) - runAllocs(short)) / float64(long-short)
}

// worstSourceData builds three sources where the worst, which exp-max
// weighs exactly 0, alone claims five continuous entries: every
// iteration's truth update then takes the weighted median of those
// entries with zero total weight, WeightedMedianBuf's unweighted
// fallback.
func worstSourceData() *data.Dataset {
	b := data.NewBuilder()
	p := b.MustProperty("v", data.Continuous)
	good1, good2, worst := b.Source("good1"), b.Source("good2"), b.Source("worst")
	for o := 0; o < 20; o++ {
		obj := b.Object(fmt.Sprintf("shared%02d", o))
		b.ObserveIdx(good1, obj, p, data.Float(float64(o)))
		b.ObserveIdx(good2, obj, p, data.Float(float64(o)+0.5))
		b.ObserveIdx(worst, obj, p, data.Float(float64(o)+50))
	}
	for o := 0; o < 5; o++ {
		b.ObserveIdx(worst, b.Object(fmt.Sprintf("solo%d", o)), p, data.Float(float64(o)))
	}
	return b.Build()
}

// TestSolverIterationAllocFree pins zero steady-state allocations per
// solver iteration: losses and schemes work in solver-owned scratch, so
// the whole weight/truth/objective cycle stays off the heap — for the
// default configuration (absolute/0-1 losses, exp-max weights) on mixed
// data and on entries only a zero-weight source claims, for every other
// built-in scheme, and for the Huber and Bregman losses. EditDistance
// and the loss ensemble are the exceptions: both still allocate per
// entry.
func TestSolverIterationAllocFree(t *testing.T) {
	mixed := Prepare(synthesize(equivCase{"mixed", 2, 2, 10, 200, 0.25}, 42))
	for _, c := range []struct {
		name string
		p    *Prepared
		cfg  Config
	}{
		{"default/mixed", mixed, Config{}},
		{"default/worst-source", Prepare(worstSourceData()), Config{}},
		{"exp-sum", mixed, Config{Scheme: reg.ExpSum{}}},
		{"catd", mixed, Config{Scheme: reg.CATD{}}},
		{"top-j", mixed, Config{Scheme: reg.TopJ{J: 2}}},
		{"best-source", mixed, Config{Scheme: reg.BestSource{}}},
		{"huber", mixed, Config{ContinuousLoss: loss.Huber{}}},
		{"bregman-squared", mixed, Config{ContinuousLoss: loss.SquaredBregman()}},
	} {
		if delta := iterAllocDelta(t, c.p, c.cfg, 4, 24); delta != 0 {
			t.Errorf("%s: allocates %.2f objects per iteration, want 0", c.name, delta)
		}
	}
}

// TestSolverIterationAllocFreeProbabilistic pins the same contract on
// the probabilistic categorical path (squared-prob distributions in the
// per-entry arena) with the exp-sum scheme.
func TestSolverIterationAllocFreeProbabilistic(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 10, 200, 0.25}, 43)
	p := Prepare(d)
	cfg := Config{
		ContinuousLoss:  loss.NormalizedSquared{},
		CategoricalLoss: loss.SquaredProb{},
		Scheme:          reg.ExpSum{},
	}
	if delta := iterAllocDelta(t, p, cfg, 4, 24); delta != 0 {
		t.Fatalf("squared-prob config allocates %.2f objects per iteration, want 0", delta)
	}
}

// TestSolverRunReusesPrepared pins the flip side: a whole Run on a
// Prepared must stay within a fixed allocation budget that does not
// scale with the dataset's claim count — the Dataset and its Prepared,
// not the run, own the data-sized buffers. The budget is generous (setup still allocates
// weights, partials, scratch) but catches any per-entry allocation
// sneaking back into the iteration loop.
func TestSolverRunReusesPrepared(t *testing.T) {
	small := Prepare(synthesize(equivCase{"mixed", 2, 2, 8, 100, 0.2}, 44))
	big := Prepare(synthesize(equivCase{"mixed", 2, 2, 8, 1600, 0.2}, 44))
	cfg := Config{MaxIters: 6, Tol: math.Inf(-1), Workers: 1}
	measure := func(p *Prepared) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := p.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(big)
	// 16× the entries must not mean 16× the allocations: allow the dist
	// table header and truth table growth, nothing per-claim.
	if b > a*4 {
		t.Fatalf("run allocations scale with dataset size: %0.f (small) vs %.0f (16x entries)", a, b)
	}
}

// TestParallelRunReleasesPrepared pins that a finished multi-worker run
// keeps nothing reachable: one GC after the runs must collect their
// Prepareds. A sync.Pool inside the solver would keep each solver, its
// Prepared and its Dataset alive for two more GC cycles. Automatic
// collection is off so the single runtime.GC below is the only cycle.
func TestParallelRunReleasesPrepared(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pool := NewPool(2)
	defer pool.Close()
	d := synthesize(equivCase{"mixed", 2, 2, 10, 200, 0.25}, 45)
	const runs = 20
	var released atomic.Int32
	for i := 0; i < runs; i++ {
		p := Prepare(d)
		runtime.SetFinalizer(p, func(*Prepared) { released.Add(1) })
		if _, err := p.Run(Config{Workers: 2, Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	// Finalizers run on their own goroutine after the cycle; wait for
	// all of them, or for the deadline when one Prepared survived.
	for deadline := time.Now().Add(time.Second); released.Load() < runs && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := released.Load(); n < runs {
		t.Fatalf("one GC after %d two-worker runs released %d Prepareds, want %d", runs, n, runs)
	}
}

// TestPoolReleasesUntakenOffers pins that a pool offer no worker took
// keeps nothing reachable. Both workers are parked inside another job,
// so each Do below leaves its offer in the jobs buffer and runs every
// task itself; one GC must still collect what those tasks captured.
func TestPoolReleasesUntakenOffers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pool := NewPool(2)
	defer pool.Close()
	parked, release, unparked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(unparked)
		// The caller holds task 0, so tasks 1 and 2 park both workers.
		pool.Do(3, 3, func(int) {
			parked <- struct{}{}
			<-release
		})
	}()
	for i := 0; i < 3; i++ {
		<-parked
	}
	const runs = 2
	var released atomic.Int32
	for i := 0; i < runs; i++ {
		doCaptured(pool, &released)
	}
	runtime.GC()
	for deadline := time.Now().Add(time.Second); released.Load() < runs && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(release)
	<-unparked
	if n := released.Load(); n != runs {
		t.Fatalf("one GC after %d untaken offers released %d of their captures, want %d", runs, n, runs)
	}
}

// doCaptured runs a two-task job on pool whose tasks capture a fresh
// object, counting that object's finalization in released. It is not
// inlined, so no frame of the caller keeps the object alive.
//
//go:noinline
func doCaptured(pool *Pool, released *atomic.Int32) {
	obj := new([1 << 10]byte)
	runtime.SetFinalizer(obj, func(*[1 << 10]byte) { released.Add(1) })
	pool.Do(2, 2, func(i int) { obj[i]++ })
}
