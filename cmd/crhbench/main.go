// Command crhbench regenerates the paper's tables and figures.
//
// Usage:
//
//	crhbench -exp table2           # one experiment, small scale
//	crhbench -exp all -scale full  # everything at the paper's scale
//	crhbench -exp all -json .      # also write BENCH_<id>.json per experiment
//	crhbench -workers 1,2,4,8      # parallel-solver sweep over worker budgets
//	crhbench -ingest off,interval,batch  # WAL append throughput per fsync policy
//	crhbench -scales medium,large  # solver scale sweep, sequential vs parallel
//	crhbench -list                 # enumerate experiment IDs
//
// Small scale shrinks the large simulations so every experiment finishes
// in seconds; full scale uses the paper's data set sizes (Tables 1 and 3)
// and can take a long time for the baseline-heavy tables.
//
// With -json, each experiment additionally writes a machine-readable
// BENCH_<id>.json record (wall time, ns/op, allocations, table row
// counts) to the given directory, so CI can diff benchmark numbers
// across commits. The schema is documented in docs/OBSERVABILITY.md.
//
// With -workers, crhbench instead times the core solver on the Bank
// simulation (the largest tabular workload) once per listed worker
// budget, verifies each budget's output is bit-for-bit identical to the
// sequential run (the docs/PARALLEL.md contract), and — with -json —
// writes one BENCH_workers-<k>.json per budget. Every record pins
// gomaxprocs and workers; sweep numbers are only comparable between
// records agreeing on both.
//
// With -ingest, crhbench measures durable WAL append throughput (the
// internal/wal substrate behind crhd's -data-dir) once per listed fsync
// policy, verifies each log replays bit-identically, and — with -json —
// writes one BENCH_ingest-<policy>.json per policy with an obs_per_sec
// field.
//
// With -scales, crhbench times the core solver on growing Bank
// simulations (small, medium, large tiers), running each tier once
// sequentially and once at an 8-worker budget, verifying the two are
// bit-for-bit identical, and — with -json — writing one
// BENCH_scale-<tier>.json per tier with seq_wall_ns and speedup fields.
// A speedup is only meaningful when every worker has a CPU, so it is
// recorded only when gomaxprocs ≥ the worker budget; otherwise the
// record omits it and the sweep prints n/a.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/experiments"
	"github.com/crhkit/crh/internal/obs/buildinfo"
	"github.com/crhkit/crh/internal/synth"
	"github.com/crhkit/crh/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchRecord is the BENCH_<id>.json document written for each
// experiment under -json.
type benchRecord struct {
	Name    string `json:"name"`
	Caption string `json:"caption"`
	Scale   string `json:"scale"`
	// Runs is the number of times the experiment executed; WallNs the
	// total wall time and NsPerOp the per-run average.
	Runs    int   `json:"runs"`
	WallNs  int64 `json:"wall_ns"`
	NsPerOp int64 `json:"ns_per_op"`
	// AllocBytes/AllocObjects are heap-allocation deltas over the runs
	// (runtime.MemStats TotalAlloc/Mallocs), an upper bound that includes
	// any concurrent allocation.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// TableRows counts the data rows across the report's tables — a
	// cheap fingerprint that the experiment produced full output. Sweep
	// records count resolved truth entries instead.
	TableRows int    `json:"table_rows"`
	GoVersion string `json:"go_version"`
	// GoMaxProcs pins the GOMAXPROCS the record was measured under, and
	// Workers the solver worker budget (0 = the experiment's own
	// default). Results never depend on either — the solver is
	// bit-identical at every budget — but wall times do, so CI must only
	// diff records that agree on both fields.
	GoMaxProcs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// ObsPerSec is the sustained observation throughput of an ingest
	// sweep record (BENCH_ingest-<fsync>.json); zero elsewhere. Fsync
	// names the WAL fsync policy the rate was measured under — rates are
	// only comparable between records agreeing on it.
	ObsPerSec float64 `json:"obs_per_sec,omitempty"`
	Fsync     string  `json:"fsync,omitempty"` // see ObsPerSec
	// SeqWallNs and Speedup appear on scale-sweep records
	// (BENCH_scale-<tier>.json): the sequential (workers=1) wall time of
	// the same solve, and the ratio seq/parallel. Speedup is omitted
	// when Workers exceeds GoMaxProcs: the parallel run then still
	// exercises the full work-stealing path, but its workers share CPUs,
	// so the ratio measures multiplexing, not parallel speedup.
	SeqWallNs int64   `json:"seq_wall_ns,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

// runMeasured executes one experiment, rendering its report to stdout
// and returning the filled benchmark record.
func runMeasured(e experiments.Experiment, s experiments.Scale, scaleName string, stdout io.Writer) benchRecord {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	rep := e.Run(s)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	rep.Render(stdout)
	rows := 0
	for _, t := range rep.Tables {
		rows += len(t.Rows)
	}
	return benchRecord{
		Name:         e.ID,
		Caption:      e.Caption,
		Scale:        scaleName,
		Runs:         1,
		WallNs:       wall.Nanoseconds(),
		NsPerOp:      wall.Nanoseconds(),
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		AllocObjects: after.Mallocs - before.Mallocs,
		TableRows:    rows,
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
	}
}

// writeRecord marshals one benchmark record to dir/BENCH_<name>.json
// and reports the path on stderr.
func writeRecord(dir string, rec benchRecord, stderr io.Writer) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+rec.Name+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "crhbench: wrote %s\n", path)
	return nil
}

// sameBits reports the first divergence between two solver results, or
// nil when they are bit-for-bit identical.
func sameBits(d *data.Dataset, ref, got *core.Result) error {
	if ref.Iterations != got.Iterations {
		return fmt.Errorf("iterations %d vs %d", ref.Iterations, got.Iterations)
	}
	for e := 0; e < d.NumEntries(); e++ {
		rv, rok := ref.Truths.Get(e)
		gv, gok := got.Truths.Get(e)
		if rok != gok || rv.C != gv.C || math.Float64bits(rv.F) != math.Float64bits(gv.F) {
			return fmt.Errorf("truth for entry %d", e)
		}
	}
	for k := range ref.Weights {
		if math.Float64bits(ref.Weights[k]) != math.Float64bits(got.Weights[k]) {
			return fmt.Errorf("weight of source %d", k)
		}
	}
	return nil
}

// timedSolve times one core.Run of d at the given worker budget and,
// unless ref is nil, checks the result bit for bit against ref. The
// record holds the run's wall time, allocation deltas and resolved
// truth count; the caller names it. A failure is reported on stderr
// under label, and the result is then nil.
func timedSolve(d *data.Dataset, ref *core.Result, workers int, label string, stderr io.Writer) (*core.Result, benchRecord) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := core.Run(d, core.Config{Workers: workers})
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		fmt.Fprintf(stderr, "crhbench: %s: %v\n", label, err)
		return nil, benchRecord{}
	}
	if ref != nil {
		if err := sameBits(d, ref, res); err != nil {
			fmt.Fprintf(stderr, "crhbench: %s diverged from sequential run: %v\n", label, err)
			return nil, benchRecord{}
		}
	}
	return res, benchRecord{
		Runs:         1,
		WallNs:       wall.Nanoseconds(),
		NsPerOp:      wall.Nanoseconds(),
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		AllocObjects: after.Mallocs - before.Mallocs,
		TableRows:    res.Truths.Count(),
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Workers:      workers,
	}
}

// runWorkersSweep times core.Run on the Bank simulation once per worker
// budget, cross-checking every budget against the sequential reference
// before any record is written.
func runWorkersSweep(list string, s experiments.Scale, scaleName, jsonDir string, stdout, stderr io.Writer) int {
	var budgets []int
	for _, field := range strings.Split(list, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || k < 1 {
			fmt.Fprintf(stderr, "crhbench: -workers entry %q is not a positive integer\n", field)
			return 2
		}
		budgets = append(budgets, k)
	}
	d, _ := experiments.BankData(s)
	ref, err := core.Run(d, core.Config{Workers: 1})
	if err != nil {
		fmt.Fprintf(stderr, "crhbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "workers sweep: Bank simulation, %d entries, %d sources, gomaxprocs=%d\n",
		d.NumEntries(), d.NumSources(), runtime.GOMAXPROCS(0))
	for _, k := range budgets {
		res, rec := timedSolve(d, ref, k, fmt.Sprintf("workers=%d", k), stderr)
		if res == nil {
			return 1
		}
		fmt.Fprintf(stdout, "workers=%d: %v, %d iterations, bit-identical to sequential\n",
			k, time.Duration(rec.WallNs).Round(time.Microsecond), res.Iterations)
		if jsonDir == "" {
			continue
		}
		rec.Name = fmt.Sprintf("workers-%d", k)
		rec.Caption = fmt.Sprintf("Parallel CRH solver on the Bank simulation, worker budget %d", k)
		rec.Scale = scaleName
		if err := writeRecord(jsonDir, rec, stderr); err != nil {
			fmt.Fprintf(stderr, "crhbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// scaleTiers maps -scales tier names to Bank simulation ground-truth
// row counts. The small tier matches the workers sweep's dataset
// (experiments.BankData at ScaleSmall, with the same generator seed) so
// scale records chain onto the existing worker records; medium and
// large grow the entry count 4× and 12× to put the claim columns,
// the shard partials, and the scratch reuse well past cache-resident
// sizes. Each row contributes 16 entries (the Bank schema).
var scaleTiers = map[string]int{
	"small":  2000,
	"medium": 8000,
	"large":  24000,
}

// runScaleSweep times the solver on the Bank simulation once per tier,
// sequentially and at an 8-worker budget, cross-checking the two runs
// bit for bit before any record is written.
func runScaleSweep(list, jsonDir string, stdout, stderr io.Writer) int {
	const parWorkers = 8
	for _, field := range strings.Split(list, ",") {
		tier := strings.TrimSpace(field)
		rows, ok := scaleTiers[tier]
		if !ok {
			fmt.Fprintf(stderr, "crhbench: unknown -scales tier %q (want small, medium or large)\n", tier)
			return 2
		}
		d, _ := synth.Bank(synth.UCIConfig{Seed: experiments.BankSeed, Rows: rows})
		fmt.Fprintf(stdout, "scale=%s: Bank simulation, %d entries, %d sources, gomaxprocs=%d\n",
			tier, d.NumEntries(), d.NumSources(), runtime.GOMAXPROCS(0))

		ref, seq := timedSolve(d, nil, 1, "scale="+tier+" sequential", stderr)
		if ref == nil {
			return 1
		}
		res, rec := timedSolve(d, ref, parWorkers, fmt.Sprintf("scale=%s workers=%d", tier, parWorkers), stderr)
		if res == nil {
			return 1
		}
		seqWall, parWall := time.Duration(seq.WallNs), time.Duration(rec.WallNs)
		var speedup float64
		shown := "n/a, workers > gomaxprocs"
		if parWorkers <= runtime.GOMAXPROCS(0) {
			speedup = seqWall.Seconds() / parWall.Seconds()
			shown = fmt.Sprintf("%.2fx", speedup)
		}
		fmt.Fprintf(stdout, "scale=%s: seq %v, workers=%d %v (speedup %s), %d iterations, bit-identical\n",
			tier, seqWall.Round(time.Microsecond), parWorkers, parWall.Round(time.Microsecond), shown, res.Iterations)
		if jsonDir == "" {
			continue
		}
		rec.Name = "scale-" + tier
		rec.Caption = fmt.Sprintf("CRH solver scale sweep on the Bank simulation, %d rows (%d entries)", rows, d.NumEntries())
		rec.Scale = tier
		rec.SeqWallNs, rec.Speedup = seq.WallNs, speedup
		if err := writeRecord(jsonDir, rec, stderr); err != nil {
			fmt.Fprintf(stderr, "crhbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// ingestStream builds a deterministic observation stream for the WAL
// append benchmark: batches of mixed continuous/categorical claims over
// a rotating source/object pool, the same shape crhd's live ingest sees.
func ingestStream(batches, obsPerBatch int) [][]wal.Obs {
	rng := rand.New(rand.NewSource(7))
	conds := []string{"sunny", "rain", "snow", "fog"}
	out := make([][]wal.Obs, batches)
	for i := range out {
		batch := make([]wal.Obs, obsPerBatch)
		for j := range batch {
			o := wal.Obs{
				Source: fmt.Sprintf("s%02d", rng.Intn(40)),
				Object: fmt.Sprintf("o%04d", rng.Intn(5000)),
			}
			if rng.Intn(3) == 0 {
				o.Property, o.Kind = "cond", wal.Categorical
				o.Cat = conds[rng.Intn(len(conds))]
			} else {
				o.Property, o.Kind = "temp", wal.Continuous
				o.F = rng.NormFloat64()*12 + 20
			}
			if rng.Intn(4) == 0 {
				o.TS, o.HasTS = i, true
			}
			batch[j] = o
		}
		out[i] = batch
	}
	return out
}

// ingestBatches and ingestObsPerBatch size the ingest sweep's stream.
const ingestBatches, ingestObsPerBatch = 2000, 50

// runIngestSweep measures durable WAL append throughput once per fsync
// policy, then replays each log and cross-checks the recovered stream
// bit-for-bit against what was appended before any record is written.
// crhbench is the one binary outside internal/server allowed to import
// internal/wal, precisely for this benchmark (docs/LINT.md).
func runIngestSweep(list, jsonDir string, stdout, stderr io.Writer) int {
	stream := ingestStream(ingestBatches, ingestObsPerBatch)
	fmt.Fprintf(stdout, "ingest sweep: %d batches x %d observations, gomaxprocs=%d\n",
		ingestBatches, ingestObsPerBatch, runtime.GOMAXPROCS(0))
	for _, field := range strings.Split(list, ",") {
		policy, err := wal.ParseFsyncPolicy(strings.TrimSpace(field))
		if err != nil {
			fmt.Fprintf(stderr, "crhbench: %v\n", err)
			return 2
		}
		if code := ingestPolicy(policy, stream, jsonDir, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// ingestPolicy runs the ingest sweep for one fsync policy in a
// temporary directory, which it removes before returning.
func ingestPolicy(policy wal.FsyncPolicy, stream [][]wal.Obs, jsonDir string, stdout, stderr io.Writer) int {
	dir, err := os.MkdirTemp("", "crhbench-ingest-*")
	if err != nil {
		fmt.Fprintf(stderr, "crhbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	l, _, err := wal.OpenLog(dir, wal.Options{Fsync: policy})
	if err != nil {
		fmt.Fprintf(stderr, "crhbench: %v\n", err)
		return 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, b := range stream {
		if err := l.AppendBatch(int64(i+2), b); err != nil {
			fmt.Fprintf(stderr, "crhbench: append under fsync=%s: %v\n", policy, err)
			return 1
		}
	}
	if err := l.Close(); err != nil {
		fmt.Fprintf(stderr, "crhbench: %v\n", err)
		return 1
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	// Replay integrity: the log must hand back the exact stream.
	l2, replayed, err := wal.OpenLog(dir, wal.Options{})
	if err != nil {
		fmt.Fprintf(stderr, "crhbench: reopen under fsync=%s: %v\n", policy, err)
		return 1
	}
	if err := l2.Close(); err != nil {
		fmt.Fprintf(stderr, "crhbench: close replay log under fsync=%s: %v\n", policy, err)
		return 1
	}
	if len(replayed) != len(stream) {
		fmt.Fprintf(stderr, "crhbench: fsync=%s replayed %d of %d batches\n", policy, len(replayed), len(stream))
		return 1
	}
	for i, b := range replayed {
		if err := sameObs(stream[i], b.Obs); err != nil {
			fmt.Fprintf(stderr, "crhbench: fsync=%s batch %d diverged on replay: %v\n", policy, i, err)
			return 1
		}
	}

	totalObs := ingestBatches * ingestObsPerBatch
	rate := float64(totalObs) / wall.Seconds()
	fmt.Fprintf(stdout, "fsync=%-8s %8.0f obs/sec (%v for %d observations), replay bit-identical\n",
		policy, rate, wall.Round(time.Millisecond), totalObs)
	if jsonDir == "" {
		return 0
	}
	rec := benchRecord{
		Name:         "ingest-" + policy.String(),
		Caption:      fmt.Sprintf("Durable WAL append throughput, fsync=%s", policy),
		Scale:        "small",
		Runs:         ingestBatches,
		WallNs:       wall.Nanoseconds(),
		NsPerOp:      wall.Nanoseconds() / ingestBatches,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		AllocObjects: after.Mallocs - before.Mallocs,
		TableRows:    totalObs,
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		ObsPerSec:    rate,
		Fsync:        policy.String(),
	}
	if err := writeRecord(jsonDir, rec, stderr); err != nil {
		fmt.Fprintf(stderr, "crhbench: %v\n", err)
		return 1
	}
	return 0
}

// sameObs reports the first divergence between two observation slices
// (Float64bits comparison for continuous values), or nil.
func sameObs(want, got []wal.Obs) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d vs %d observations", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Source != g.Source || w.Object != g.Object || w.Property != g.Property ||
			w.Kind != g.Kind || w.Cat != g.Cat || w.TS != g.TS || w.HasTS != g.HasTS ||
			math.Float64bits(w.F) != math.Float64bits(g.F) {
			return fmt.Errorf("observation %d: %+v vs %+v", i, w, g)
		}
	}
	return nil
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crhbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment ID (e.g. table2, fig5) or 'all'")
	scale := fs.String("scale", "small", "data scale: small | full")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	jsonDir := fs.String("json", "", "write a BENCH_<id>.json record per experiment to this directory")
	workersList := fs.String("workers", "", "comma-separated solver worker budgets: time the Bank workload per budget instead of running experiments")
	ingestList := fs.String("ingest", "", "comma-separated WAL fsync policies (off,interval,batch): measure durable append throughput per policy instead of running experiments")
	scalesList := fs.String("scales", "", "comma-separated solver scale tiers (small,medium,large): time the Bank workload sequential vs parallel per tier instead of running experiments")
	version := fs.Bool("version", false, "print version information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stderr, "crhbench")
		return 0
	}

	if *list {
		reg := experiments.Registry()
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-8s %s\n", id, reg[id].Caption)
		}
		return 0
	}

	var s experiments.Scale
	switch *scale {
	case "small":
		s = experiments.ScaleSmall
	case "full":
		s = experiments.ScaleFull
	default:
		fmt.Fprintf(stderr, "crhbench: unknown scale %q (want small or full)\n", *scale)
		return 2
	}

	if *ingestList != "" {
		return runIngestSweep(*ingestList, *jsonDir, stdout, stderr)
	}
	if *workersList != "" {
		return runWorkersSweep(*workersList, s, *scale, *jsonDir, stdout, stderr)
	}
	if *scalesList != "" {
		return runScaleSweep(*scalesList, *jsonDir, stdout, stderr)
	}

	reg := experiments.Registry()
	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		if _, ok := reg[*exp]; !ok {
			fmt.Fprintf(stderr, "crhbench: unknown experiment %q; -list shows the options\n", *exp)
			return 2
		}
		ids = []string{*exp}
	}

	for _, id := range ids {
		if *exp == "all" {
			fmt.Fprintf(stdout, ">>> running %s ...\n", id)
		}
		rec := runMeasured(reg[id], s, *scale, stdout)
		if *jsonDir == "" {
			continue
		}
		if err := writeRecord(*jsonDir, rec, stderr); err != nil {
			fmt.Fprintf(stderr, "crhbench: %v\n", err)
			return 1
		}
	}
	return 0
}
