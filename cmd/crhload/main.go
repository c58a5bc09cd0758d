// Command crhload load-tests a running crhd: it drives a mixed
// ingest/resolve/incremental workload at configurable concurrency,
// rate, duration, and traffic mix, then reports achieved throughput,
// latency quantiles per endpoint, error rate, and the server's own
// per-stage latency shares (from /v1/stats) — optionally judged against
// declared SLO targets.
//
// Usage:
//
//	crhload -addr http://127.0.0.1:8080 -profile resolve-heavy
//	crhload -profile ingest-heavy -json .        # write BENCH_serve-ingest-heavy.json
//	crhload -rate 200 -c 32 -duration 30s        # open loop: 200 arrivals/s
//	crhload -mix resolve=50,ingest=50 -slo slo.json
//	crhload -profile smoke -check                # CI gate (scripts/loadcheck.sh)
//
// Two loop disciplines:
//
//   - closed (default): -c workers each issue their next request as soon
//     as the previous completes; throughput floats with server speed.
//   - open (-rate > 0): arrivals are scheduled at the fixed rate
//     regardless of completions, and latency is measured from each
//     request's scheduled start, so queueing delay caused by a slow
//     server counts against it (no coordinated omission). -c bounds the
//     inflight requests; arrivals that find every slot busy are counted
//     as late dispatches.
//
// The run seeds (or reuses) a target dataset, and a fixed -seed replays
// the identical request sequence. Exit codes: 0 success, 1 runtime
// failure, 2 bad flags, 3 SLO violation or failed -check. See
// docs/LOAD.md for the SLO file format and the BENCH_serve schema.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/crhkit/crh/internal/obs/buildinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// profile bundles a named default workload shape; explicit flags
// override individual fields.
type profile struct {
	mix      string
	conc     int
	rate     float64 // 0 = closed loop
	duration time.Duration
}

// profiles are the built-in workload shapes. resolve-heavy and
// ingest-heavy are the two committed BENCH_serve records; smoke is the
// short CI gate behind make loadcheck.
var profiles = map[string]profile{
	"resolve-heavy": {mix: "resolve=90,ingest=8,incremental=2", conc: 8, duration: 10 * time.Second},
	"ingest-heavy":  {mix: "resolve=20,ingest=75,incremental=5", conc: 8, duration: 10 * time.Second},
	"mixed":         {mix: "resolve=60,ingest=30,incremental=10", conc: 8, duration: 10 * time.Second},
	"smoke":         {mix: "resolve=70,ingest=25,incremental=5", conc: 4, duration: 2 * time.Second},
}

// profileNames lists the profiles in a stable order for -help and
// error text.
func profileNames() string {
	return "resolve-heavy, ingest-heavy, mixed, smoke"
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crhload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "base URL of the target crhd")
		prof     = fs.String("profile", "mixed", "workload profile: "+profileNames())
		mixFlag  = fs.String("mix", "", "traffic mix, e.g. resolve=90,ingest=5,incremental=5 (overrides the profile)")
		conc     = fs.Int("c", 0, "concurrency: closed-loop workers, or the open-loop inflight cap (overrides the profile)")
		rate     = fs.Float64("rate", 0, "open-loop arrival rate per second (0 = closed loop)")
		duration = fs.Duration("duration", 0, "run length (overrides the profile)")
		seed     = fs.Int64("seed", 1, "workload seed; a fixed seed replays the identical request sequence")
		dataset  = fs.String("dataset", "load", "target dataset name (created and seeded if absent)")
		objects  = fs.Int("objects", 200, "seeded dataset size: objects with conflicting claims")
		sources  = fs.Int("sources", 10, "seeded dataset size: claiming sources")
		sloPath  = fs.String("slo", "", "JSON file of SLO targets to judge the run against (docs/LOAD.md)")
		jsonDir  = fs.String("json", "", "write a BENCH_serve-<name>.json record to this directory")
		name     = fs.String("name", "", "record name (default: the profile name)")
		check    = fs.Bool("check", false, "smoke gate: fail unless the run had zero errors and the server's stage histograms populated")
		quiet    = fs.Bool("quiet", false, "suppress the periodic progress lines")
		version  = fs.Bool("version", false, "print version information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		buildinfo.Print(stderr, "crhload")
		return 0
	}

	p, ok := profiles[*prof]
	if !ok {
		fmt.Fprintf(stderr, "crhload: unknown profile %q (want %s)\n", *prof, profileNames())
		return 2
	}
	if *mixFlag != "" {
		p.mix = *mixFlag
	}
	if *conc != 0 {
		p.conc = *conc
	}
	if *rate > 0 {
		p.rate = *rate
	}
	if *duration != 0 {
		p.duration = *duration
	}
	m, err := parseMix(p.mix)
	if err != nil {
		fmt.Fprintf(stderr, "crhload: %v\n", err)
		return 2
	}
	if p.conc < 1 || p.duration <= 0 || *rate < 0 || *objects < 1 || *sources < 1 {
		fmt.Fprintf(stderr, "crhload: concurrency, duration, rate, objects, and sources must be positive\n")
		return 2
	}
	var spec *sloSpec
	if *sloPath != "" {
		if spec, err = loadSLO(*sloPath); err != nil {
			fmt.Fprintf(stderr, "crhload: %v\n", err)
			return 2
		}
	}
	recName := *name
	if recName == "" {
		recName = *prof
	}

	c := newClient(*addr, *dataset, p.conc)
	seedRNG := newSeedRNG(*seed)
	if err := c.ensureDataset(seedRNG, *objects, *sources); err != nil {
		fmt.Fprintf(stderr, "crhload: %v\n", err)
		return 1
	}

	before, err := c.fetchStats()
	if err != nil {
		fmt.Fprintf(stderr, "crhload: /v1/stats unavailable before run (%v); stage shares will be omitted\n", err)
	}

	rm := new(runMetrics)
	stop := make(chan struct{})
	if !*quiet && p.duration > 5*time.Second {
		go progressLoop(rm, m, 5*time.Second, stop, func(format string, args ...any) {
			fmt.Fprintf(stderr, "crhload: "+format, args...)
		})
	}
	mode := "closed"
	var wall time.Duration
	if p.rate > 0 {
		mode = "open"
		wall = runOpen(c, m, p.conc, p.rate, p.duration, *seed, *objects, *sources, rm)
	} else {
		wall = runClosed(c, m, p.conc, p.duration, *seed, *objects, *sources, rm)
	}
	close(stop)

	after, err := c.fetchStats()
	if err != nil {
		fmt.Fprintf(stderr, "crhload: /v1/stats unavailable after run (%v); stage shares omitted\n", err)
	}

	rec := buildRecord(recName, *prof, mode, p.conc, p.rate, wall, *seed, m, rm, before, after)
	if spec != nil {
		res := evaluateSLO(spec, &rec)
		rec.SLO = &res
	}
	printReport(stdout, rec)

	if *jsonDir != "" {
		path, err := writeRecord(*jsonDir, rec)
		if err != nil {
			fmt.Fprintf(stderr, "crhload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "crhload: wrote %s\n", path)
	}

	code := 0
	if rec.SLO != nil && !rec.SLO.Pass {
		for _, v := range rec.SLO.Violations {
			fmt.Fprintf(stderr, "crhload: SLO violation: %s\n", v)
		}
		code = 3
	}
	if *check {
		if msgs := checkSmoke(&rec, after); len(msgs) > 0 {
			for _, msg := range msgs {
				fmt.Fprintf(stderr, "crhload: check failed: %s\n", msg)
			}
			code = 3
		} else {
			fmt.Fprintln(stderr, "crhload: check passed: zero errors, stage histograms populated")
		}
	}
	return code
}

// checkSmoke is the -check gate used by scripts/loadcheck.sh: the run
// must have issued traffic on every endpoint in the mix with zero
// errors, and the server's stage histograms must show the resolve
// pipeline actually executed (at least four stages with observations).
func checkSmoke(rec *serveRecord, after *statsDoc) []string {
	var msgs []string
	if rec.Total.Requests == 0 {
		msgs = append(msgs, "no requests issued")
	}
	if rec.Total.Errors > 0 {
		msgs = append(msgs, fmt.Sprintf("%d request errors", rec.Total.Errors))
	}
	if after == nil {
		return append(msgs, "/v1/stats unreadable; cannot verify stage histograms")
	}
	populated := 0
	var stagesSeen []string
	for name, st := range after.Stages {
		if st.Count > 0 {
			populated++
			stagesSeen = append(stagesSeen, name)
		}
	}
	if populated < 4 {
		sort.Strings(stagesSeen)
		msgs = append(msgs, fmt.Sprintf("only %d stage histograms populated (%s), want ≥ 4",
			populated, strings.Join(stagesSeen, ",")))
	}
	return msgs
}
