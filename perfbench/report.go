package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result is everything one run measured.
type result struct {
	w      workload
	seed   int64
	traced bool
	in     *inputs
	inputS float64
	record runRecord
	rounds []*round
	// setups holds every set-up: one per crhd that served a round, and
	// the set-up-only boots.
	setups []setup
	// timedFirst and timedLast are the log's sizes after the first and
	// the last timed op: what crhd rebuilds from, early and late.
	timedFirst, timedLast logMark
	replay                *layerReplay
	spanFile              string
	selfTimes             []selfTime
}

// runRecord is the environment a result was measured in.
type runRecord struct {
	nproc, gomaxprocs int
	goVersion, kernel string
	dataDirFS, fsync  string
	crhdFlags         string
	// stealPct is the share of the machine's CPU time the hypervisor
	// took for other guests while the rounds and set-ups ran: the
	// neighbours' load, which slows every timing. NaN when unknown.
	stealPct float64
}

func newRunRecord(dir string, w workload) runRecord {
	flags := []string{"-addr", "127.0.0.1:0"}
	if w.ingest {
		flags = append(flags, "-data-dir", "<run dir>")
	}
	rec := runRecord{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		kernel:     "unknown",
		dataDirFS:  fsName(dir),
		fsync:      "none (memory-only)",
		crhdFlags:  strings.Join(append(flags, w.args...), " "),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		rec.kernel = strings.TrimSpace(string(b))
	}
	if w.ingest {
		rec.fsync = "batch (crhd's default)"
		for i, a := range w.args {
			if a == "-fsync" && i+1 < len(w.args) {
				rec.fsync = w.args[i+1]
			}
		}
	}
	return rec
}

// cpuTicks reads the machine-wide CPU time from /proc/stat: the ticks
// stolen by the hypervisor and all ticks, summed over every CPU.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal ticks. Guest time is
// already counted in user time, so it stays out of the total.
func parseCPULine(line string) (steal, total uint64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]uint64
	for i := range v {
		x, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = x
		total += x
	}
	return v[7], total, true
}

// stealShare returns the percentage of the ticks between two cpuTicks
// readings that were stolen, NaN if either reading failed.
func stealShare(steal0, total0 uint64, ok0 bool, steal1, total1 uint64, ok1 bool) float64 {
	if !ok0 || !ok1 || total1 <= total0 {
		return math.NaN()
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

// fsName names the filesystem holding dir, from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x58465342: "xfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs type %#x", st.Type)
}

// metric is one reported value, printed in the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured collects one subset of rounds (untraced or traced): every
// sample pooled, and each round's own figures.
type measured struct {
	rounds, ops, failed int
	wall                time.Duration
	// CPU seconds crhd used in the timed phases: in all, and during the
	// ingest and the resolve calls.
	cpuS, ingestCPU, resolveCPU float64
	// Pooled samples of all the rounds, in round then op order.
	resolveMs, ingestMs, opMs []float64
	// Per round: throughput, client-latency percentiles, CPU costs and
	// peak RSS.
	perRound map[string][]float64
}

func collect(rounds []*round, traced bool) measured {
	m := measured{perRound: map[string][]float64{}}
	add := func(name string, v float64) { m.perRound[name] = append(m.perRound[name], v) }
	for _, rd := range rounds {
		if rd.traced != traced {
			continue
		}
		m.rounds++
		m.ops += rd.ops
		m.failed += rd.timedFailed
		m.wall += rd.wall
		m.cpuS += rd.cpuS
		m.ingestCPU += rd.ingestCPU
		m.resolveCPU += rd.resolveCPU
		m.resolveMs = append(m.resolveMs, rd.resolveMs...)
		m.ingestMs = append(m.ingestMs, rd.ingestMs...)
		m.opMs = append(m.opMs, rd.opMs...)
		add("throughput_ops_s", float64(rd.ops-rd.timedFailed)/rd.wall.Seconds())
		add("resolve_p50_ms", nearestRank(rd.resolveMs, 50))
		add("resolve_p95_ms", nearestRank(rd.resolveMs, 95))
		add("ingest_p50_ms", nearestRank(rd.ingestMs, 50))
		add("ingest_p95_ms", nearestRank(rd.ingestMs, 95))
		add("op_p50_ms", nearestRank(rd.opMs, 50))
		add("op_p95_ms", nearestRank(rd.opMs, 95))
		add("rss_peak_mb", rd.rssMiB)
		add("op_cpu_ms", 1000*rd.cpuS/float64(len(rd.opMs)))
		add("resolve_cpu_ms", 1000*rd.resolveCPU/float64(len(rd.resolveMs)))
		add("ingest_cpu_ms", 1000*rd.ingestCPU/float64(len(rd.ingestMs)))
	}
	return m
}

// setupCPU lists the CPU time of every set-up.
func (r *result) setupCPU() []float64 {
	xs := make([]float64, len(r.setups))
	for i, su := range r.setups {
		xs[i] = su.cpuS
	}
	return xs
}

// peakRSS is the 90th percentile (nearest rank) of the run's crhds' peak
// RSS, read at the end of every set-up and of every untraced round. Most
// crhds reach their peak while decoding the upload, at a height the
// collector's timing sets, so a high rank over all of them says what a
// crhd needs far more steadily than any one crhd does, and one crhd that
// overshoots does not set it.
func (r *result) peakRSS(m measured) float64 {
	xs := append([]float64(nil), m.perRound["rss_peak_mb"]...)
	for _, su := range r.setups {
		xs = append(xs, su.rssMiB)
	}
	return nearestRank(xs, 90)
}

// endToEnd returns the end-to-end metrics the benchmark gates on, the
// ones the final JSON line carries. Each is a cost in crhd's CPU time,
// which the hypervisor's steal leaves out, or its memory: on a shared
// machine the wall-clock figures move with the neighbours' load (see
// README.md), so they are printed beside these but not gated. setup_s is
// the median over the run's set-ups; the per-op costs are totals over
// every timed op of the untraced rounds. Every metric is defined on every
// workload: on the resolve workloads an op is a resolve, so op_cpu_ms
// equals resolve_cpu_ms.
func (r *result) endToEnd(m measured) map[string]metric {
	return map[string]metric{
		"setup_s":        {median(r.setupCPU()), "s"},
		"op_cpu_ms":      {1000 * m.cpuS / float64(len(m.opMs)), "ms"},
		"resolve_cpu_ms": {1000 * m.resolveCPU / float64(len(m.resolveMs)), "ms"},
		"rss_peak_mb":    {r.peakRSS(m), "MiB"},
	}
}

func (r *result) print(w io.Writer) error {
	in := r.in
	fmt.Fprintf(w, "perfbench %s  seed %d  (generator seed %d: %d claims, %d objects, %d sources, %d properties)\n",
		r.w.name, r.seed, in.genSeed, in.gen.NumObservations(), in.gen.NumObjects(), in.gen.NumSources(), in.gen.NumProps())
	rec := r.record
	steal := "unknown"
	if !math.IsNaN(rec.stealPct) {
		steal = fmt.Sprintf("%.1f%%", rec.stealPct)
	}
	fmt.Fprintf(w, "run record: nproc %d, GOMAXPROCS %d (benchmark) / %s, %s, kernel %s, data-dir filesystem %s, fsync %s, crhd flags %q, CPU steal %s of the machine's time during rounds and set-ups\n",
		rec.nproc, rec.gomaxprocs, crhdProcs(r.rounds), rec.goVersion, rec.kernel, rec.dataDirFS, rec.fsync, rec.crhdFlags, steal)
	fmt.Fprintf(w, "workload: closed loop, %d connection(s); each round is a fresh crhd's %d warm-up ops, then %d timed ops; upload %d bytes; inputs built in %.2f s\n",
		r.w.conns, r.w.warmup, r.w.opsPerRound, len(in.upload), r.inputS)
	fmt.Fprintln(w, "rounds:")
	for i, rd := range r.rounds {
		tag := "untraced"
		if rd.traced {
			tag = "traced"
		}
		fmt.Fprintf(w, "  %2d %-8s crhd %-2d  setup cpu %.4f s wall %.4f s  %4d ops in %.3f s (%.2f ops/s)  op p50 %.3f ms  p95 %.3f ms  cpu %.3f ms/op  rss %.1f MiB  failed %d  cached %d  coalesced %d\n",
			i+1, tag, rd.crhd, rd.setup.cpuS, rd.setup.wallS, rd.ops, rd.wall.Seconds(), float64(rd.ops-rd.timedFailed)/rd.wall.Seconds(),
			nearestRank(rd.opMs, 50), nearestRank(rd.opMs, 95), 1000*rd.cpuS/float64(rd.ops), rd.rssMiB, rd.failed, rd.cached, rd.coalesced)
		if rd.firstErr != nil {
			fmt.Fprintf(w, "     first failure: %v\n", rd.firstErr)
		}
	}

	m := collect(r.rounds, false)
	e2e := r.endToEnd(m)
	attempted, failed := 0, 0
	for _, rd := range r.rounds {
		attempted += rd.attempted
		failed += rd.failed
	}
	fmt.Fprintf(w, "end-to-end (%d untraced rounds):\n", m.rounds)
	wallS := make([]float64, len(r.setups))
	for i, su := range r.setups {
		wallS[i] = su.wallS
	}
	r.printE2E(w, e2e, m, fmt.Sprintf("crhd CPU time, median of %d set-ups, each in a fresh crhd (%s); wall time %.4f s (%s)",
		len(r.setups), spreadNote(r.setupCPU()), median(wallS), spreadNote(wallS)))
	fmt.Fprintf(w, "  %-18s %12.4f %-6s %d failed of %d attempted, warm-up ops and final-state checks included\n",
		"failed_ratio", float64(failed)/float64(attempted), "ratio", failed, attempted)
	// The truth metrics are exact for a seed and vary only from seed to
	// seed; they are printed, not gated (README.md).
	q := r.rounds[len(r.rounds)-1].quality
	fmt.Fprintf(w, "  %-18s %12.4f %-6s final truths vs generator ground truth, categorical entries\n", "truth_error_rate", q.errorRate, "ratio")
	fmt.Fprintf(w, "  %-18s %12.4f %-6s final truths vs generator ground truth, continuous entries\n", "truth_mnad", q.mnad, "MNAD")
	if failed == 0 {
		fmt.Fprintf(w, "  correctness: every response checked; final truths and weights bit-identical to in-process crh.Run (%d categorical, %d continuous ground-truth entries scored)\n",
			q.catEntries, q.contEntries)
	} else {
		fmt.Fprintf(w, "  correctness: %d failed ops or checks; each round's first failure is listed above\n", failed)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if r.traced {
		out.Metrics = r.printLedger(w)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := out.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printE2E prints the end-to-end metrics with units: first the gated
// ones, then the client-observed wall-clock figures, each timing over
// every sample of the run with the sample count. Beside each, the
// quartiles and spread of the rounds' own figures.
func (r *result) printE2E(w io.Writer, e2e map[string]metric, m measured, setupNote string) {
	row := func(name, unit string, v float64, note string) {
		fmt.Fprintf(w, "  %-18s %12.4f %-6s %s\n", name, v, unit, note)
	}
	rounds := func(name string) string {
		return fmt.Sprintf("%d rounds: %s", len(m.perRound[name]), spreadNote(m.perRound[name]))
	}
	timing := func(name string, pooled []float64, p float64) {
		row(name, "ms", nearestRank(pooled, p), fmt.Sprintf("nearest rank over %d samples, %d beyond the p95; %s",
			len(pooled), beyond(pooled, 95), rounds(name)))
	}
	fmt.Fprintln(w, "  gated, in crhd CPU time (steal excluded) and memory:")
	row("setup_s", "s", e2e["setup_s"].Value, setupNote)
	row("op_cpu_ms", "ms", e2e["op_cpu_ms"].Value,
		fmt.Sprintf("crhd CPU time per op over %d ops; %s", len(m.opMs), rounds("op_cpu_ms")))
	row("resolve_cpu_ms", "ms", e2e["resolve_cpu_ms"].Value,
		fmt.Sprintf("the part used during resolve calls, per resolve; %s", rounds("resolve_cpu_ms")))
	row("rss_peak_mb", "MiB", e2e["rss_peak_mb"].Value,
		fmt.Sprintf("p90 of crhd VmHWM over the run's %d set-ups and %d rounds; at round end, %s", len(r.setups), m.rounds, rounds("rss_peak_mb")))
	fmt.Fprintln(w, "  printed, not gated: client-observed wall clock, which the machine's steal inflates:")
	row("throughput_ops_s", "ops/s", float64(m.ops-m.failed)/m.wall.Seconds(),
		fmt.Sprintf("%d timed ops in %.3f s; %s", m.ops-m.failed, m.wall.Seconds(), rounds("throughput_ops_s")))
	timing("resolve_p50_ms", m.resolveMs, 50)
	timing("resolve_p95_ms", m.resolveMs, 95)
	if len(m.ingestMs) > 0 {
		timing("ingest_p50_ms", m.ingestMs, 50)
		timing("ingest_p95_ms", m.ingestMs, 95)
		row("ingest_cpu_ms", "ms", 1000*m.ingestCPU/float64(len(m.ingestMs)),
			fmt.Sprintf("crhd CPU time used during ingest calls, per ingest; %s", rounds("ingest_cpu_ms")))
	} else {
		fmt.Fprintf(w, "  %-18s %12s %-6s no ingest on this workload\n", "ingest_p50_ms", "n/a", "ms")
		fmt.Fprintf(w, "  %-18s %12s %-6s\n", "ingest_p95_ms", "n/a", "ms")
	}
	timing("op_p50_ms", m.opMs, 50)
	timing("op_p95_ms", m.opMs, 95)
}

// spreadNote describes how widely xs spread: its quartiles, and their
// distance as a share of the median, the figure a bound is judged by.
func spreadNote(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("quartiles %.4f .. %.4f, spread %.1f%%", q1, q3, 100*spread(xs))
}

// crhdProcs reports crhd's GOMAXPROCS and its solver pool size. crhd
// inherits this process's environment and CPU affinity, so its
// GOMAXPROCS is this process's unless the environment sets it, and then
// the same value; the pool size is read from crhd's /metrics.
func crhdProcs(rounds []*round) string {
	procs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		procs = v
	}
	pool := "unknown"
	if v, ok := rounds[0].after["crhd_solver_workers"]; ok {
		pool = fmt.Sprintf("%g", v)
	}
	return fmt.Sprintf("%d (crhd, solver pool %s)", procs, pool)
}
