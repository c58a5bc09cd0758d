package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// endpointReport is one endpoint's measured outcome in the
// BENCH_serve record and the printed table.
type endpointReport struct {
	// Requests counts issued requests (including failures); Errors the
	// transport failures and non-2xx responses among them.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"` // see Requests
	// QPS is successful completions per second of run wall time.
	QPS float64 `json:"qps"`
	// Latency quantiles and extremes over successful requests, in
	// milliseconds (closed loop: measured from dispatch; open loop:
	// from scheduled start). Omitted when no request succeeded.
	P50Ms  *float64 `json:"p50_ms,omitempty"`
	P95Ms  *float64 `json:"p95_ms,omitempty"`  // see P50Ms
	P99Ms  *float64 `json:"p99_ms,omitempty"`  // see P50Ms
	MaxMs  *float64 `json:"max_ms,omitempty"`  // see P50Ms
	MeanMs *float64 `json:"mean_ms,omitempty"` // see P50Ms
}

// serveRecord is the BENCH_serve-<name>.json document: one committed,
// machine-diffable record per load profile. The schema is documented in
// docs/LOAD.md; like every BENCH record it pins go_version and
// gomaxprocs, and numbers are only comparable between records agreeing
// on mode, concurrency, rate, and mix.
type serveRecord struct {
	Name        string  `json:"name"`
	Profile     string  `json:"profile"`
	Mode        string  `json:"mode"` // "closed" or "open"
	Concurrency int     `json:"concurrency"`
	RateHz      float64 `json:"rate_hz,omitempty"` // open loop only
	DurationNs  int64   `json:"duration_ns"`
	Seed        int64   `json:"seed"`
	Mix         string  `json:"mix"`
	GoVersion   string  `json:"go_version"`
	GoMaxProcs  int     `json:"gomaxprocs"`

	// Endpoints breaks the run down per endpoint; Total aggregates all
	// traffic. ErrorRate is total errors over total requests.
	Endpoints map[string]endpointReport `json:"endpoints"`
	Total     endpointReport            `json:"total"` // see Endpoints
	ErrorRate float64                   `json:"error_rate"`

	// LateDispatches counts open-loop arrivals that found every inflight
	// slot busy (the schedule slipped); always 0 for closed runs.
	LateDispatches int64 `json:"late_dispatches"`

	// StageSharesPct is the server-side view of the same run: the
	// fraction of pipeline stage time per stage (percent, summing to
	// ~100) from the /v1/stats delta between run start and end. Empty
	// when the server's stats were unreadable.
	StageSharesPct map[string]float64 `json:"stage_shares_pct,omitempty"`

	// SLO is the pass/fail verdict against the -slo file, if one was
	// given.
	SLO *sloResult `json:"slo,omitempty"`
}

// summarize fills rep's QPS and latency fields from the latencies lat
// of a run lasting wall, sorting lat in place; the latency fields stay
// unset when lat is empty. Each quantile is the nearest-rank order
// statistic, so it is one of the samples.
func summarize(rep *endpointReport, lat []time.Duration, wall time.Duration) {
	if wall > 0 {
		rep.QPS = float64(len(lat)) / wall.Seconds()
	}
	if len(lat) == 0 {
		return
	}
	slices.Sort(lat)
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	ms := func(d time.Duration) *float64 {
		v := float64(d) / 1e6
		return &v
	}
	mean := float64(sum) / float64(len(lat)) / 1e6
	rep.P50Ms, rep.P95Ms, rep.P99Ms = ms(nearestRank(lat, 50)), ms(nearestRank(lat, 95)), ms(nearestRank(lat, 99))
	rep.MaxMs, rep.MeanMs = ms(lat[len(lat)-1]), &mean
}

// nearestRank returns the pct-th percentile (pct in 1..100) of the
// ascending, non-empty samples: the ⌈pct·n/100⌉-th smallest.
func nearestRank(sorted []time.Duration, pct int) time.Duration {
	return sorted[(pct*len(sorted)+99)/100-1]
}

// buildRecord assembles the full run record.
func buildRecord(name, profile, mode string, conc int, rate float64, wall time.Duration, seed int64, m mix, rm *runMetrics, before, after *statsDoc) serveRecord {
	rec := serveRecord{
		Name:           name,
		Profile:        profile,
		Mode:           mode,
		Concurrency:    conc,
		RateHz:         rate,
		DurationNs:     wall.Nanoseconds(),
		Seed:           seed,
		Mix:            m.String(),
		GoVersion:      runtime.Version(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Endpoints:      make(map[string]endpointReport, numEndpoints),
		LateDispatches: rm.late.Load(),
	}
	// The total row is taken over every endpoint's samples together.
	var all []time.Duration
	for i := range rm.eps {
		em := &rm.eps[i]
		if em.requests.Load() == 0 && m[i] == 0 {
			continue
		}
		rep := endpointReport{Requests: em.requests.Load(), Errors: em.errors.Load()}
		lat := em.latencies(0)
		summarize(&rep, lat, wall)
		rec.Endpoints[endpointNames[i]] = rep
		rec.Total.Requests += rep.Requests
		rec.Total.Errors += rep.Errors
		all = append(all, lat...)
	}
	summarize(&rec.Total, all, wall)
	if rec.Total.Requests > 0 {
		rec.ErrorRate = float64(rec.Total.Errors) / float64(rec.Total.Requests)
	}
	rec.StageSharesPct = stageShares(before, after)
	return rec
}

// stageShares computes each pipeline stage's percentage of server-side
// stage time accrued during the run, from the /v1/stats documents
// sampled before and after. Either document missing yields nil.
func stageShares(before, after *statsDoc) map[string]float64 {
	if before == nil || after == nil || len(after.Stages) == 0 {
		return nil
	}
	deltas := make(map[string]float64, len(after.Stages))
	var total float64
	for name, a := range after.Stages {
		d := a.SumMs
		if b, ok := before.Stages[name]; ok {
			d -= b.SumMs
		}
		if d < 0 {
			d = 0 // server restarted mid-run; shares are best-effort
		}
		deltas[name] = d
		total += d
	}
	if total <= 0 {
		return nil
	}
	for name := range deltas {
		deltas[name] = deltas[name] / total * 100
	}
	return deltas
}

// printReport renders the human-readable run summary.
func printReport(w io.Writer, rec serveRecord) {
	fmt.Fprintf(w, "crhload: profile=%s mode=%s concurrency=%d duration=%s mix=%s seed=%d\n",
		rec.Profile, rec.Mode, rec.Concurrency, time.Duration(rec.DurationNs).Round(time.Millisecond), rec.Mix, rec.Seed)
	if rec.Mode == "open" {
		fmt.Fprintf(w, "crhload: target rate %.0f/s, %d late dispatches\n", rec.RateHz, rec.LateDispatches)
	}
	fmt.Fprintf(w, "%-12s %10s %8s %10s %9s %9s %9s %9s\n",
		"endpoint", "requests", "errors", "qps", "p50", "p95", "p99", "max")
	row := func(name string, rep endpointReport) {
		ms := func(p *float64) string {
			if p == nil {
				return "-"
			}
			return fmt.Sprintf("%.2fms", *p)
		}
		fmt.Fprintf(w, "%-12s %10d %8d %10.1f %9s %9s %9s %9s\n",
			name, rep.Requests, rep.Errors, rep.QPS, ms(rep.P50Ms), ms(rep.P95Ms), ms(rep.P99Ms), ms(rep.MaxMs))
	}
	for _, name := range endpointNames {
		if rep, ok := rec.Endpoints[name]; ok {
			row(name, rep)
		}
	}
	row("total", rec.Total)
	fmt.Fprintf(w, "error rate: %.4f\n", rec.ErrorRate)
	if len(rec.StageSharesPct) > 0 {
		names := make([]string, 0, len(rec.StageSharesPct))
		for name := range rec.StageSharesPct {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "server stage shares:")
		for _, name := range names {
			fmt.Fprintf(w, " %s=%.1f%%", name, rec.StageSharesPct[name])
		}
		fmt.Fprintln(w)
	}
}

// writeRecord marshals the record to dir/BENCH_serve-<name>.json,
// following the repo's BENCH_<id>.json convention (docs/LOAD.md).
func writeRecord(dir string, rec serveRecord) (string, error) {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_serve-"+rec.Name+".json")
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}
