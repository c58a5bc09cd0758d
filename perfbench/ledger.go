package main

import (
	"fmt"
	"io"
	"math"
)

// stageNames are crhd's resolve pipeline stages, in pipeline order.
var stageNames = []string{"decode", "cache", "coalesce", "queue", "solve", "encode"}

// ledgerRow is one per-layer figure of the printed ledger. Rows with
// json set are also reported in the run's final line (the per_layer
// metrics of BENCHMARK.json). The rest are times that a gated workload
// leaves at exactly zero by construction, so they would read the same on
// every run of it: they are printed only. Counts and ratios that are
// zero on a workload are reported, since zero is what they measure.
type ledgerRow struct {
	layer, name string
	value       float64
	unit        string
	json        bool
}

// printLedger prints the traced run's per-layer ledger and returns its
// per-layer metrics. Server figures are deltas of crhd's /metrics over
// the traced rounds' timed phases, divided per op or per resolve; library
// figures come from the in-process replays.
func (r *result) printLedger(w io.Writer) map[string]metric {
	var traced []*round
	for _, rd := range r.rounds {
		if rd.traced {
			traced = append(traced, rd)
		}
	}
	sum := func(series string) float64 {
		var s float64
		for _, rd := range traced {
			s += delta(rd.before, rd.after, series)
		}
		return s
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := collect(r.rounds, true)
	ops := float64(m.ops)
	resolves := sum("crhd_resolve_latency_seconds_count")
	serverMs := per(1000*sum("crhd_resolve_latency_seconds_sum"), resolves)
	stage := map[string]float64{}
	var stageSum float64
	for _, s := range stageNames {
		stage[s] = per(1000*sum(`crhd_stage_seconds_sum{stage="`+s+`"}`), resolves)
		stageSum += stage[s]
	}
	hits, misses := sum("crhd_cache_hits_total"), sum("crhd_cache_misses_total")
	fsyncs := sum("crhd_wal_fsync_seconds_count")
	var heap []float64
	for _, rd := range traced {
		heap = append(heap, rd.after["go_heap_inuse_bytes"]/(1<<20))
	}
	var ttfb, body []float64
	for _, rd := range traced {
		ttfb = append(ttfb, rd.ttfbMs...)
		body = append(body, rd.bodyMs...)
	}
	clientResolve := mean(m.resolveMs)
	untraced := collect(r.rounds, false)
	overhead := nearestRank(m.opMs, 50)/nearestRank(untraced.opMs, 50) - 1
	rep := r.replay

	rows := []ledgerRow{
		{"crhd HTTP surface", "crhd.ttfb_ms", mean(ttfb), "ms", true},
		{"crhd HTTP surface", "crhd.body_ms", mean(body), "ms", true},
		{"crhd HTTP surface", "crhd.unattributed_ms", clientResolve - serverMs, "ms", true},
		{"internal/server", "server.decode_ms", stage["decode"], "ms", true},
		{"internal/server", "server.cache_ms", stage["cache"], "ms", true},
		{"internal/server", "server.coalesce_ms", stage["coalesce"], "ms", false},
		{"internal/server", "server.queue_ms", stage["queue"], "ms", true},
		{"internal/server", "server.solve_ms", stage["solve"], "ms", true},
		{"internal/server", "server.encode_ms", stage["encode"], "ms", true},
		{"internal/server", "server.solve_share", per(stage["solve"], stageSum), "ratio", true},
		{"internal/server", "server.cache_hit_ratio", per(hits, hits+misses), "ratio", true},
		{"internal/server", "server.solves_per_op", per(sum(`crhd_stage_seconds_count{stage="solve"}`), ops), "count", true},
		{"internal/wal", "wal.fsyncs_per_op", per(fsyncs, ops), "count", true},
		{"internal/wal", "wal.fsync_ms", per(1000*sum("crhd_wal_fsync_seconds_sum"), fsyncs), "ms", false},
		{"internal/wal", "wal.bytes_per_obs", per(sum("crhd_wal_append_bytes_total"), sum("crhd_wal_append_observations_total")), "bytes", true},
		{"internal/wal", "wal.snapshots", per(sum("crhd_wal_snapshots_total"), float64(len(traced))), "count", true},
		{"internal/stream", "stream.process_ms", rep.processMs, "ms", false},
		{"internal/data", "data.decode_ms", rep.decodeMs, "ms", true},
		{"internal/data", "data.build_first_ms", rep.buildFirstMs, "ms", true},
		{"internal/data", "data.build_last_ms", rep.buildLastMs, "ms", true},
		{"internal/core", "core.prepare_ms", rep.prepareMs, "ms", true},
		{"internal/core", "core.run_ms", rep.runMs, "ms", true},
		{"internal/core", "core.iterations", rep.iterations, "count", true},
		{"internal/core", "core.weight_ms", rep.weightMs, "ms", true},
		{"internal/core", "core.truth_ms", rep.truthMs, "ms", true},
		{"internal/core", "core.objective_ms", rep.objectiveMs, "ms", true},
		{"internal/core", "core.allocs_per_run", rep.allocsPerRun, "count", true},
		{"internal/core", "core.alloc_mb_per_run", rep.allocMBPerRun, "MiB", true},
		{"Go runtime (crhd)", "runtime.gc_per_op", per(sum("go_gc_cycles"), ops), "count", true},
		{"Go runtime (crhd)", "runtime.heap_inuse_mb", median(heap), "MiB", true},
		{"tracing", "trace.overhead_ratio", overhead, "ratio", true},
	}

	fmt.Fprintf(w, "per-layer ledger (%d traced rounds, %d ops, %d resolves; server figures per resolve unless named per_op; in-process replays at %d solver worker(s) with crhd stopped):\n",
		len(traced), m.ops, len(m.resolveMs), rep.workers)
	out := map[string]metric{}
	for _, row := range rows {
		mark := " "
		if !row.json {
			mark = "*"
		}
		fmt.Fprintf(w, "  %-18s %-24s %14.4f %-5s %s\n", row.layer, row.name, row.value, row.unit, mark)
		if row.json {
			out[row.name] = metric{row.value, row.unit}
		}
	}
	fmt.Fprintln(w, "  (* printed only: a time that is exactly zero by construction on a gated workload)")

	fmt.Fprintln(w, "residuals (means per op, ms):")
	fmt.Fprintf(w, "  resolve: client %.4f = crhd stages %.4f (", clientResolve, stageSum)
	for i, s := range stageNames {
		if i > 0 {
			fmt.Fprint(w, " + ")
		}
		fmt.Fprintf(w, "%s %.4f", s, stage[s])
	}
	fmt.Fprintf(w, ") + unstaged in crhd %.4f + outside crhd %.4f; residual (client minus stages) %.4f\n",
		serverMs-stageSum, clientResolve-serverMs, clientResolve-stageSum)
	if len(m.ingestMs) > 0 {
		build := (rep.buildFirstMs + rep.buildLastMs) / 2
		fsync := per(1000*sum("crhd_wal_fsync_seconds_sum"), ops)
		fmt.Fprintf(w, "  ingest: client %.4f = whole-log rebuild %.4f (replayed, mean of first and last size) + WAL fsync %.4f + I-CRH chunk %.4f (replayed) + residual %.4f (HTTP, decode, validate, WAL append, chunk build)\n",
			mean(m.ingestMs), build, fsync, rep.processMs, mean(m.ingestMs)-build-fsync-rep.processMs)
		first, last := tenths(r.rounds, func(rd *round) []float64 { return rd.ingestCPUMs })
		wFirst, wLast := tenths(r.rounds, func(rd *round) []float64 { return rd.ingestMs })
		fmt.Fprintf(w, "  ingest growth: crhd CPU time per ingest, median of the first tenth of each round's ingests %.4f ms, of the last tenth %.4f ms (%+.1f%%; wall clock %.4f → %.4f ms) as the log grows from %d to %d claims\n",
			first, last, 100*(last/first-1), wFirst, wLast, r.timedFirst.claims, r.timedLast.claims)
	}
	fmt.Fprintf(w, "  replays: data.decode of the %d-byte upload; data.build at %d and %d claims; core at %d solver worker(s); stream.process over %d chunks\n",
		rep.decodeUploadBytes, rep.buildClaimsFirst, rep.buildClaimsLast, rep.workers, rep.processCalls)

	fmt.Fprintln(w, "self times (span duration minus child spans):")
	for _, st := range r.selfTimes {
		fmt.Fprintf(w, "  %-16s %6d spans  mean %10.4f ms  self %10.4f ms\n", st.name, st.count, st.totalMs/float64(st.count), st.self/float64(st.count))
	}
	fmt.Fprintf(w, "tracing overhead: traced op p50 %.4f ms vs untraced %.4f ms in this run (%+.2f%%)\n",
		nearestRank(m.opMs, 50), nearestRank(untraced.opMs, 50), 100*overhead)
	fmt.Fprintf(w, "spans written to %s\n", r.spanFile)
	return out
}

// tenths returns the median over the first tenth and over the last tenth
// of every round's samples, in op order, of the series of that round
// that get picks.
func tenths(rounds []*round, get func(*round) []float64) (first, last float64) {
	var a, b []float64
	for _, rd := range rounds {
		xs := get(rd)
		k := len(xs) / 10
		if k == 0 {
			continue
		}
		a = append(a, xs[:k]...)
		b = append(b, xs[len(xs)-k:]...)
	}
	if len(a) == 0 {
		return math.NaN(), math.NaN()
	}
	return median(a), median(b)
}
