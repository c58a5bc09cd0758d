package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// newSeedRNG derives the dataset-seeding rng from the run seed,
// distinct from the per-worker request streams.
func newSeedRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Endpoint indices, in mix order.
const (
	epResolve = iota
	epIngest
	epIncremental
	numEndpoints
)

// endpointNames names the endpoints, indexed by the ep constants.
var endpointNames = [numEndpoints]string{"resolve", "ingest", "incremental"}

// mix holds the relative traffic weights per endpoint. Zero-weight
// endpoints are never issued.
type mix [numEndpoints]int

// parseMix reads "resolve=90,ingest=5,incremental=5". Every entry is
// optional; at least one weight must be positive.
func parseMix(s string) (mix, error) {
	var m mix
	for _, field := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return m, fmt.Errorf("mix entry %q is not name=weight", field)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("mix weight %q is not a non-negative integer", val)
		}
		idx := -1
		for i, n := range endpointNames {
			if n == name {
				idx = i
			}
		}
		if idx < 0 {
			return m, fmt.Errorf("unknown endpoint %q in mix (want resolve, ingest, or incremental)", name)
		}
		m[idx] = w
	}
	if m.total() == 0 {
		return m, fmt.Errorf("mix %q has no positive weight", s)
	}
	return m, nil
}

func (m mix) total() int {
	t := 0
	for _, w := range m {
		t += w
	}
	return t
}

// pick selects an endpoint index by weight.
func (m mix) pick(rng *rand.Rand) int {
	n := rng.Intn(m.total())
	for i, w := range m {
		if n < w {
			return i
		}
		n -= w
	}
	return numEndpoints - 1 // unreachable
}

func (m mix) String() string {
	parts := make([]string, 0, numEndpoints)
	for i, w := range m {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", endpointNames[i], w))
		}
	}
	return strings.Join(parts, ",")
}

// resolveOptionVariants are the request bodies resolve traffic rotates
// through. Distinct options take distinct cache keys, so the rotation
// gives the server's result cache a realistic hit/miss blend instead of
// a single eternally-hot entry.
var resolveOptionVariants = []string{
	`{}`,
	`{"options":{"weights":"exp-sum"}}`,
	`{"options":{"confidence":true}}`,
	`{"options":{"continuous_loss":"squared","weights":"exp-sum"}}`,
	`{"method":"Median"}`,
}

// genRequest materializes the next request. It runs on the generator's
// single goroutine, so one rng stream drives the whole run and a given
// (seed, mix, duration) replays the same request sequence.
func genRequest(rng *rand.Rand, m mix, dataset string, objects, sources int) reqSpec {
	base := "/v1/datasets/" + dataset
	switch ep := m.pick(rng); ep {
	case epResolve:
		return reqSpec{ep: ep, method: "POST", path: base + "/resolve",
			body: resolveOptionVariants[rng.Intn(len(resolveOptionVariants))]}
	case epIngest:
		return reqSpec{ep: ep, method: "POST", path: base + "/observations",
			body: ingestBody(rng, objects, sources)}
	default:
		return reqSpec{ep: epIncremental, method: "GET", path: base + "/incremental"}
	}
}

// ingestBody builds one observation batch: a handful of conflicting
// claims over the seeded object/source pool. Each batch bumps the
// dataset version, which invalidates resolve cache entries — ingest
// traffic therefore also controls how often resolves do solver work.
func ingestBody(rng *rand.Rand, objects, sources int) string {
	type obsJSON struct {
		Source   string `json:"source"`
		Object   string `json:"object"`
		Property string `json:"property"`
		Value    any    `json:"value"`
	}
	conds := []string{"sunny", "rain", "snow", "fog"}
	batch := make([]obsJSON, 8)
	for i := range batch {
		o := obsJSON{
			Source: fmt.Sprintf("s%02d", rng.Intn(sources)),
			Object: fmt.Sprintf("o%04d", rng.Intn(objects)),
		}
		if rng.Intn(3) == 0 {
			o.Property = "cond"
			o.Value = conds[rng.Intn(len(conds))]
		} else {
			o.Property = "temp"
			o.Value = rng.NormFloat64()*8 + 20
		}
		batch[i] = o
	}
	raw, err := json.Marshal(map[string]any{"observations": batch})
	if err != nil {
		panic(err) // marshaling plain structs cannot fail
	}
	return string(raw)
}

// epMetrics accumulates one endpoint's results: the latencies of its
// successful requests, 8 bytes each in completion order, and atomic
// counters. Failed requests count toward requests/errors but keep no
// latency.
type epMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	mu       sync.Mutex
	lat      []time.Duration // guarded by mu
}

func (m *epMetrics) record(d time.Duration, err error) {
	m.requests.Add(1)
	if err != nil {
		m.errors.Add(1)
		return
	}
	m.mu.Lock()
	m.lat = append(m.lat, d)
	m.mu.Unlock()
}

// latencies returns a copy of the latencies recorded after the first
// from, in completion order.
func (m *epMetrics) latencies(from int) []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.lat[from:])
}

// runMetrics is the full per-run measurement state.
type runMetrics struct {
	eps  [numEndpoints]epMetrics
	late atomic.Int64 // open loop: dispatches delayed by the inflight cap
}

// runClosed drives the closed loop: conc workers, each issuing its next
// request as soon as the previous one completes. Each worker owns a
// deterministic rng stream derived from the run seed.
func runClosed(c *client, m mix, conc int, duration time.Duration, seed int64, objects, sources int, rm *runMetrics) time.Duration {
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
			for time.Now().Before(deadline) {
				spec := genRequest(rng, m, c.dataset, objects, sources)
				t0 := time.Now()
				err := c.do(spec)
				rm.eps[spec.ep].record(time.Since(t0), err)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// runOpen drives the open loop: arrivals are scheduled at a fixed rate
// independent of completions, the honest model of external clients.
// Latency is measured from each request's *scheduled* start, so time a
// request spends waiting for one of the conc inflight slots counts
// against the server (no coordinated omission); such delayed dispatches
// are also counted in rm.late.
func runOpen(c *client, m mix, conc int, rate float64, duration time.Duration, seed int64, objects, sources int, rm *runMetrics) time.Duration {
	start := time.Now()
	deadline := start.Add(duration)
	interval := time.Duration(float64(time.Second) / rate)
	rng := rand.New(rand.NewSource(seed * 1_000_003)) // single generator stream
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for n := int64(0); ; n++ {
		sched := start.Add(time.Duration(n) * interval)
		if !sched.Before(deadline) {
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		spec := genRequest(rng, m, c.dataset, objects, sources)
		select {
		case sem <- struct{}{}:
		default:
			// All inflight slots are busy: the schedule is slipping.
			rm.late.Add(1)
			sem <- struct{}{}
		}
		wg.Add(1)
		go func(spec reqSpec, sched time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := c.do(spec)
			rm.eps[spec.ep].record(time.Since(sched), err)
		}(spec, sched)
	}
	wg.Wait()
	return time.Since(start)
}

// progressLoop prints a progress line every interval until stop
// closes.
func progressLoop(rm *runMetrics, m mix, interval time.Duration, stop <-chan struct{}, printf func(format string, args ...any)) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	last := start
	var seen [numEndpoints]int
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			now := time.Now()
			printf("%s\n", progressLine(rm, m, &seen, now.Sub(start), now.Sub(last)))
			last = now
		}
	}
}

// progressLine formats one progress line: per active endpoint, the rate
// and p95 of the requests completed since the previous line, and the
// errors so far. seen[i] counts endpoint i's latencies earlier lines
// reported and is advanced past this line's; elapsed is the run time so
// far and since the time since the previous line.
func progressLine(rm *runMetrics, m mix, seen *[numEndpoints]int, elapsed, since time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "t=%s", elapsed.Round(time.Second))
	for i := range rm.eps {
		if m[i] == 0 {
			continue
		}
		em := &rm.eps[i]
		lat := em.latencies(seen[i])
		seen[i] += len(lat)
		p95 := "-"
		if len(lat) > 0 {
			slices.Sort(lat)
			p95 = nearestRank(lat, 95).Round(100 * time.Microsecond).String()
		}
		fmt.Fprintf(&sb, " | %s %.0f/s p95=%s errs=%d",
			endpointNames[i], float64(len(lat))/since.Seconds(), p95, em.errors.Load())
	}
	return sb.String()
}
