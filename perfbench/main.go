// Command perfbench is crhd's end-to-end benchmark. It boots fresh crhd
// subprocesses for its rounds, drives them over HTTP from this process with
// closed loops of at most two connections, checks every response, and
// prints the end-to-end metrics of one workload; a traced run (-trace 1)
// prints the per-layer ledger instead. Build and run it from the
// repository root through run.sh, which builds crhd first:
//
//	sh perfbench/run.sh --workload resolve-cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads, the metrics and the layer-to-metric map.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic shape. Every round of a workload does the same
// fixed number of ops in a fresh crhd, so every round grows the dataset
// identically.
type workload struct {
	name string
	// conns is the number of closed-loop connections; warmup the untimed
	// ops each fresh crhd serves first, while its heap grows to its
	// working size; opsPerRound the timed ops of one round.
	conns, warmup, opsPerRound int
	// roundS is about how long one round's timed ops take on the
	// two-vCPU machine in README.md. A run serves -seconds/roundS rounds,
	// a count fixed before it starts, so that every run of a workload
	// does the same work and has the same shape, however fast the
	// machine is at the time.
	roundS float64
	// setups is how many set-ups setup_s is the median of: one per round
	// and set-up-only boots for the rest.
	setups int
	// args are crhd's flags beyond its listener (and, on ingest, its
	// data directory).
	args []string
	// ingest makes each op an ingest-then-resolve cycle against a
	// durable crhd preloaded with preloadDays days; otherwise each op is
	// one resolve of the full dataset on a memory-only crhd.
	ingest bool
	// cold gives every resolve a distinct max_iters from a rotation
	// longer than crhd's result cache (args set its size), so each one
	// misses the cache yet returns the same bytes; otherwise resolves
	// send {} and, on the resolve workloads, hit the entry the set-up
	// resolve cached.
	cold bool
	// workers is the solver budget each resolve gets inside crhd (its
	// pool split across concurrent solves); the in-process core replays
	// run at the same budget.
	workers int
}

// A run's percentiles are taken over the samples of all its rounds, at
// least 360 on resolve-cold and ingest-resolve, so a p95 has at least 18
// samples beyond it. resolve-cold runs crhd with a two-entry result
// cache, so the six-value max_iters rotation misses it on every request
// while the heap stays at the dataset's working size; one connection and
// a one-worker solver pool, so that a solve never waits for the other
// core, which serves the collector and this process. ingest-resolve's WAL
// is written but never fsynced per ingest: the run directory sits on
// whatever disk holds the checkout, and a shared disk's flush times would
// set the numbers (README.md). Its warm-up outlasts the dearer ingests of
// a fresh crhd's first hundred or so cycles, which would otherwise hide
// the growth of ingest cost with the log. BENCHMARK.json gates
// resolve-cold and ingest-resolve only: resolve-cached's sub-millisecond
// ops spread too widely from run to run on a shared two-core machine
// (README.md).
var workloads = []workload{
	{name: "resolve-cold", conns: 1, warmup: 16, opsPerRound: 120, roundS: 7, setups: 7, cold: true, workers: 1,
		args: []string{"-cache", "2", "-solver-workers", "1"}},
	{name: "resolve-cached", conns: 2, warmup: 200, opsPerRound: 6000, roundS: 3.5, setups: 6, workers: 2},
	{name: "ingest-resolve", conns: 1, warmup: 110, opsPerRound: 120, roundS: 7, setups: 12, ingest: true, workers: 2,
		args: []string{"-fsync", "off"}},
}

const (
	// minRounds makes each run at least this many rounds; a traced run,
	// which alternates untraced and traced crhds, needs one more so that
	// it has rounds of both kinds.
	minRounds = 3
	// roundBudget stops starting rounds beyond minRounds this long into a
	// run, so a much slower machine still finishes well inside the
	// 180-second limit.
	roundBudget = 90 * time.Second
	// runTimeout aborts a run that hangs.
	runTimeout = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root    = fs.String("root", ".", "repository root; run files go under <root>/.bench_build")
		bin     = fs.String("crhd", "", "crhd binary to benchmark (run.sh builds it)")
		name    = fs.String("workload", "", "workload: "+workloadNames())
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 25, "seconds of timed ops to measure, as a round count fixed before the run starts")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *bin == "":
		fmt.Fprintln(stderr, "perfbench: -crhd is required; run it through perfbench/run.sh")
		return 2
	case *seconds < 1 || *trace < 0 || *trace > 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()

	r := &runner{
		w: *w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		bin: *bin, build: filepath.Join(*root, ".bench_build"), start: time.Now(),
	}
	res, err := r.run(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
