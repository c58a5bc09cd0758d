package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("resolve=90,ingest=5,incremental=5")
	if err != nil {
		t.Fatal(err)
	}
	if m[epResolve] != 90 || m[epIngest] != 5 || m[epIncremental] != 5 {
		t.Fatalf("mix = %v", m)
	}
	if got := m.String(); got != "resolve=90,ingest=5,incremental=5" {
		t.Errorf("String() = %q", got)
	}
	if _, err := parseMix("resolve=90,bogus=1"); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := parseMix("resolve=0,ingest=0"); err == nil {
		t.Error("all-zero mix accepted")
	}
	if _, err := parseMix("resolve"); err == nil {
		t.Error("missing weight accepted")
	}
	if _, err := parseMix("resolve=-1"); err == nil {
		t.Error("negative weight accepted")
	}
	// Partial mixes are fine.
	m, err = parseMix("ingest=1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if got := m.pick(rng); got != epIngest {
			t.Fatalf("pick on single-endpoint mix = %d", got)
		}
	}
}

// TestGenRequestDeterministic pins the replay contract: the same seed
// yields the identical request sequence.
func TestGenRequestDeterministic(t *testing.T) {
	m, _ := parseMix("resolve=60,ingest=30,incremental=10")
	gen := func() []reqSpec {
		rng := rand.New(rand.NewSource(42))
		out := make([]reqSpec, 200)
		for i := range out {
			out[i] = genRequest(rng, m, "d", 50, 5)
		}
		return out
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	var sawResolve, sawIngest, sawInc bool
	for _, r := range a {
		switch r.ep {
		case epResolve:
			sawResolve = true
		case epIngest:
			sawIngest = true
		case epIncremental:
			sawInc = true
		}
	}
	if !sawResolve || !sawIngest || !sawInc {
		t.Fatalf("200 draws missed an endpoint: resolve=%v ingest=%v incremental=%v", sawResolve, sawIngest, sawInc)
	}
}

// TestNearestRankQuantiles: each quantile is the ⌈p·n⌉-th smallest
// latency whatever order the requests completed in, max and mean are
// the samples' own, and failed requests keep no latency.
func TestNearestRankQuantiles(t *testing.T) {
	const ms = time.Millisecond
	oneSlow := []time.Duration{24 * ms}
	for i := 0; i < 19; i++ {
		oneSlow = append(oneSlow, 11*ms)
	}
	uniform := make([]time.Duration, 100)
	for i := range uniform {
		uniform[i] = time.Duration(i+1) * ms
	}
	for _, tc := range []struct {
		name                     string
		lat                      []time.Duration
		p50, p95, p99, max, mean float64
	}{
		// A bucket estimator reads p50 17.5 and p95 24 here: the twenty
		// samples share one wide bucket.
		{"nineteen fast, one slow", oneSlow, 11, 11, 24, 24, 11.65},
		{"one sample", []time.Duration{3 * ms}, 3, 3, 3, 3, 3},
		{"uniform 1..100ms", uniform, 50, 95, 99, 100, 50.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lat := slices.Clone(tc.lat)
			rand.New(rand.NewSource(1)).Shuffle(len(lat), func(i, j int) { lat[i], lat[j] = lat[j], lat[i] })
			rm := new(runMetrics)
			for _, d := range lat {
				rm.eps[epResolve].record(d, nil)
				rm.eps[epResolve].record(time.Second, errors.New("failed"))
			}
			rec := buildRecord("t", "t", "closed", 1, 0, time.Second, 1, mix{1, 0, 0}, rm, nil, nil)
			for row, rep := range map[string]endpointReport{"resolve": rec.Endpoints["resolve"], "total": rec.Total} {
				if rep.P50Ms == nil || rep.P95Ms == nil || rep.P99Ms == nil || rep.MaxMs == nil || rep.MeanMs == nil {
					t.Fatalf("%s row lacks latencies: %+v", row, rep)
				}
				got := [5]float64{*rep.P50Ms, *rep.P95Ms, *rep.P99Ms, *rep.MaxMs, *rep.MeanMs}
				if want := [5]float64{tc.p50, tc.p95, tc.p99, tc.max, tc.mean}; got != want {
					t.Errorf("%s p50/p95/p99/max/mean = %v ms, want %v", row, got, want)
				}
				if rep.QPS != float64(len(lat)) || rep.Requests != int64(2*len(lat)) {
					t.Errorf("%s: %d requests at %v qps, want %d at %d", row, rep.Requests, rep.QPS, 2*len(lat), len(lat))
				}
			}
		})
	}
}

// TestMergedQuantile: the total row's quantiles are taken over every
// endpoint's samples together.
func TestMergedQuantile(t *testing.T) {
	rm := new(runMetrics)
	for i := 0; i < 10; i++ {
		rm.eps[epResolve].record(800*time.Microsecond, nil)
		rm.eps[epIngest].record(1800*time.Microsecond, nil)
		rm.eps[epIncremental].record(40*time.Millisecond, nil)
	}
	rec := buildRecord("t", "t", "closed", 1, 0, time.Second, 1, mix{1, 1, 1}, rm, nil, nil)
	tot := rec.Total
	if tot.P50Ms == nil || tot.P95Ms == nil || tot.P99Ms == nil || tot.MaxMs == nil || tot.MeanMs == nil {
		t.Fatalf("total row lacks latencies: %+v", tot)
	}
	if *tot.P50Ms != 1.8 || *tot.P95Ms != 40 || *tot.P99Ms != 40 {
		t.Errorf("total p50/p95/p99 = %v/%v/%v ms, want 1.8/40/40", *tot.P50Ms, *tot.P95Ms, *tot.P99Ms)
	}
	if *tot.MaxMs != 40 || math.Abs(*tot.MeanMs-(0.8+1.8+40)/3) > 1e-9 {
		t.Errorf("total max %.3f ms, mean %.3f ms, want 40 and the samples' mean", *tot.MaxMs, *tot.MeanMs)
	}
	if rec.Total.QPS != 30 || rec.Total.Requests != 30 {
		t.Errorf("total %d requests at %v qps, want 30 at 30", rec.Total.Requests, rec.Total.QPS)
	}
}

// TestQuantilesNeverExceedMax: with every sample at the bottom of a wide
// bucket, where a bucket estimator puts p95 and p99 above every sample,
// each reported quantile stays at or below the reported max, on the
// endpoint rows and the total.
func TestQuantilesNeverExceedMax(t *testing.T) {
	rm := new(runMetrics)
	for i := 0; i < 100; i++ {
		rm.eps[epResolve].record(10500*time.Microsecond, nil) // bucket (10ms, 25ms]
		rm.eps[epIngest].record(time.Duration(11000+i)*time.Microsecond, nil)
	}
	rec := buildRecord("t", "t", "closed", 1, 0, time.Second, 1, mix{1, 1, 0}, rm, nil, nil)
	rows := map[string]endpointReport{"total": rec.Total}
	for name, rep := range rec.Endpoints {
		rows[name] = rep
	}
	for name, rep := range rows {
		if rep.MaxMs == nil {
			t.Fatalf("%s: no max", name)
		}
		for q, p := range map[string]*float64{"p50": rep.P50Ms, "p95": rep.P95Ms, "p99": rep.P99Ms} {
			if p == nil {
				t.Errorf("%s: no %s", name, q)
			} else if *p > *rep.MaxMs {
				t.Errorf("%s %s = %.3f ms, above the max %.3f ms", name, q, *p, *rep.MaxMs)
			}
		}
	}
}

func TestEvaluateSLO(t *testing.T) {
	q := func(v float64) *float64 { return &v }
	rec := &serveRecord{
		ErrorRate: 0.02,
		Endpoints: map[string]endpointReport{
			"resolve": {Requests: 100, QPS: 50, P50Ms: q(10), P95Ms: q(40), P99Ms: q(90)},
		},
	}
	spec := &sloSpec{
		MaxErrorRate: q(0.05),
		Endpoints: map[string]sloTargets{
			"resolve": {P95Ms: q(50), MinQPS: q(10)},
		},
	}
	if res := evaluateSLO(spec, rec); !res.Pass {
		t.Fatalf("expected pass, got %+v", res)
	}
	// Tighten until it fails on each axis.
	spec.Endpoints["resolve"] = sloTargets{P95Ms: q(30)}
	if res := evaluateSLO(spec, rec); res.Pass || len(res.Violations) != 1 {
		t.Fatalf("p95 breach not caught: %+v", res)
	}
	spec.Endpoints["resolve"] = sloTargets{MinQPS: q(100)}
	if res := evaluateSLO(spec, rec); res.Pass {
		t.Fatalf("qps floor breach not caught: %+v", res)
	}
	spec.Endpoints["resolve"] = sloTargets{}
	spec.MaxErrorRate = q(0.01)
	if res := evaluateSLO(spec, rec); res.Pass {
		t.Fatalf("error-rate breach not caught: %+v", res)
	}
	// A latency target on an endpoint with no successes must fail, not
	// pass vacuously.
	spec.MaxErrorRate = nil
	spec.Endpoints["ingest"] = sloTargets{P99Ms: q(10)}
	if res := evaluateSLO(spec, rec); res.Pass {
		t.Fatalf("dead endpoint passed its SLO: %+v", res)
	}
}

// stubServer implements just enough of the crhd API for crhload:
// create, ingest, resolve, incremental, and /v1/stats with populated
// stage histograms.
func stubServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var resolves atomic.Int64
	stages := []string{"decode", "cache", "coalesce", "queue", "solve", "encode"}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("POST /v1/datasets/{name}/observations", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"accepted":8}`)
	})
	mux.HandleFunc("POST /v1/datasets/{name}/resolve", func(w http.ResponseWriter, r *http.Request) {
		resolves.Add(1)
		fmt.Fprint(w, `{"truths":[]}`)
	})
	mux.HandleFunc("GET /v1/datasets/{name}/incremental", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"chunks":1}`)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		doc := map[string]any{"stages": map[string]any{}}
		n := resolves.Load()
		for _, st := range stages {
			doc["stages"].(map[string]any)[st] = map[string]any{"count": n, "sum_ms": float64(n) * 2}
		}
		if err := json.NewEncoder(w).Encode(doc); err != nil {
			t.Error(err)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &resolves
}

// TestRunClosedEndToEnd drives a short closed-loop run against the stub
// and checks the report, record file, and -check gate.
func TestRunClosedEndToEnd(t *testing.T) {
	ts, resolves := stubServer(t)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-profile", "smoke", "-duration", "300ms",
		"-c", "2", "-seed", "7", "-json", dir, "-check",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if resolves.Load() == 0 {
		t.Fatal("stub saw no resolves")
	}
	out := stdout.String()
	for _, want := range []string{"profile=smoke", "resolve", "ingest", "total", "error rate: 0.0000", "server stage shares:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "check passed") {
		t.Errorf("check did not pass:\n%s", stderr.String())
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_serve-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec serveRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Mode != "closed" || rec.Profile != "smoke" || rec.Seed != 7 || rec.Concurrency != 2 {
		t.Fatalf("record header: %+v", rec)
	}
	if rec.Total.Requests == 0 || rec.Total.QPS <= 0 || rec.Total.P50Ms == nil {
		t.Fatalf("record totals: %+v", rec.Total)
	}
	if rec.ErrorRate != 0 {
		t.Fatalf("error rate = %v", rec.ErrorRate)
	}
	if len(rec.StageSharesPct) != 6 {
		t.Fatalf("stage shares = %v", rec.StageSharesPct)
	}
	if rec.GoVersion == "" || rec.GoMaxProcs < 1 {
		t.Fatalf("environment pins missing: %+v", rec)
	}
}

// TestRunOpenLoop exercises the open-loop scheduler: the achieved rate
// tracks the target and the record carries the mode.
func TestRunOpenLoop(t *testing.T) {
	ts, _ := stubServer(t)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-mix", "resolve=1", "-rate", "200", "-c", "16",
		"-duration", "500ms", "-json", dir, "-name", "openloop",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_serve-openloop.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec serveRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Mode != "open" || rec.RateHz != 200 {
		t.Fatalf("record mode/rate: %+v", rec)
	}
	// 200/s for 500ms schedules ~100 arrivals; allow wide slack for slow
	// CI but require the loop actually paced.
	if rec.Total.Requests < 50 || rec.Total.Requests > 150 {
		t.Fatalf("open loop issued %d requests, want ≈100", rec.Total.Requests)
	}
}

// TestRunSLOViolation checks the distinct exit code and the embedded
// verdict when declared targets fail.
func TestRunSLOViolation(t *testing.T) {
	ts, _ := stubServer(t)
	dir := t.TempDir()
	slo := filepath.Join(dir, "slo.json")
	// An impossible throughput floor: any run violates it.
	if err := os.WriteFile(slo, []byte(`{"endpoints":{"resolve":{"min_qps":1e12}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-mix", "resolve=1", "-duration", "200ms", "-c", "2",
		"-slo", slo, "-json", dir, "-name", "slofail",
	}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "SLO violation") {
		t.Errorf("stderr missing violation:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_serve-slofail.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec serveRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SLO == nil || rec.SLO.Pass || len(rec.SLO.Violations) == 0 {
		t.Fatalf("record SLO verdict: %+v", rec.SLO)
	}
}

// TestRunCheckFailsOnErrors points crhload at a server that errors on
// resolve: -check must fail with exit 3.
func TestRunCheckFailsOnErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-mix", "resolve=1", "-duration", "200ms", "-c", "2", "-check",
	}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "check failed") {
		t.Errorf("stderr missing check failure:\n%s", stderr.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-profile", "nope"},
		{"-mix", "bogus=1"},
		{"-duration", "-1s", "-profile", "smoke"},
		{"-slo", "/nonexistent/slo.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestIngestBodyShape decodes a generated batch and checks the
// observation fields the server requires.
func TestIngestBodyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var doc struct {
		Observations []struct {
			Source   string `json:"source"`
			Object   string `json:"object"`
			Property string `json:"property"`
			Value    any    `json:"value"`
		} `json:"observations"`
	}
	if err := json.Unmarshal([]byte(ingestBody(rng, 50, 5)), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Observations) == 0 {
		t.Fatal("empty batch")
	}
	for i, o := range doc.Observations {
		if o.Source == "" || o.Object == "" || o.Value == nil {
			t.Fatalf("observation %d incomplete: %+v", i, o)
		}
		if o.Property != "temp" && o.Property != "cond" {
			t.Fatalf("observation %d property %q", i, o.Property)
		}
	}
}

// TestProgressLoopOutput checks the progress line formatting without
// waiting for real intervals.
func TestProgressLoopOutput(t *testing.T) {
	rm := new(runMetrics)
	m, _ := parseMix("resolve=1")
	rm.eps[epResolve].record(2*time.Millisecond, nil)
	var buf bytes.Buffer
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		progressLoop(rm, m, 10*time.Millisecond, stop, func(format string, args ...any) {
			fmt.Fprintf(&buf, format, args...)
		})
	}()
	time.Sleep(35 * time.Millisecond)
	close(stop)
	<-done
	out := buf.String()
	if !strings.Contains(out, "resolve") || !strings.Contains(out, "p95=") {
		t.Fatalf("progress output: %q", out)
	}
}

// TestProgressLineSinceLast: a progress line reports the requests
// completed since the previous line, so samples one line reported do
// not count on the next.
func TestProgressLineSinceLast(t *testing.T) {
	rm := new(runMetrics)
	m := mix{1, 1, 0}
	var seen [numEndpoints]int
	line := func(want string) {
		t.Helper()
		if got := progressLine(rm, m, &seen, 0, 5*time.Second); got != want {
			t.Errorf("progress line %q, want %q", got, want)
		}
	}
	for i := 0; i < 20; i++ {
		rm.eps[epResolve].record(time.Duration(1+i)*time.Millisecond, nil)
	}
	rm.eps[epIngest].record(time.Millisecond, errors.New("failed"))
	line("t=0s | resolve 4/s p95=19ms errs=0 | ingest 0/s p95=- errs=1")
	line("t=0s | resolve 0/s p95=- errs=0 | ingest 0/s p95=- errs=1")
	rm.eps[epResolve].record(30*time.Millisecond, nil)
	line("t=0s | resolve 0/s p95=30ms errs=0 | ingest 0/s p95=- errs=1")
}

// TestRecordConcurrentHammer records from many goroutines while
// progress lines and report builds read the same state; make
// racehammer runs it under the race detector. Every success reaches
// exactly one progress line and the final report.
func TestRecordConcurrentHammer(t *testing.T) {
	const workers, per = 8, 2000
	rm := new(runMetrics)
	m := mix{1, 1, 1}
	var seen [numEndpoints]int
	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { progressLine(rm, m, &seen, 0, time.Second) },
		func() { buildRecord("t", "t", "closed", workers, 0, time.Second, 1, m, rm, nil, nil) },
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					read()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var err error
				if i%10 == 0 {
					err = errors.New("failed")
				}
				rm.eps[(w+i)%numEndpoints].record(time.Duration(1+i)*time.Microsecond, err)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	progressLine(rm, m, &seen, 0, time.Second)
	rec := buildRecord("t", "t", "closed", workers, 0, time.Second, 1, m, rm, nil, nil)
	const ok = workers * per * 9 / 10
	if got := seen[0] + seen[1] + seen[2]; got != ok {
		t.Errorf("progress lines reported %d samples, want %d", got, ok)
	}
	if rec.Total.Requests != workers*per || rec.Total.Errors != workers*per/10 || rec.Total.QPS != ok {
		t.Errorf("total %d requests, %d errors, %v qps; want %d, %d, %d", rec.Total.Requests, rec.Total.Errors, rec.Total.QPS, workers*per, workers*per/10, ok)
	}
	if rec.Total.MaxMs == nil {
		t.Fatal("total row lacks latencies")
	}
	if *rec.Total.MaxMs != per/1000.0 {
		t.Errorf("total max %v ms, want %v", *rec.Total.MaxMs, per/1000.0)
	}
}

func TestSeedTSVDeterministic(t *testing.T) {
	a := seedTSV(rand.New(rand.NewSource(5)), 10, 3)
	b := seedTSV(rand.New(rand.NewSource(5)), 10, 3)
	if a != b {
		t.Fatal("seedTSV not deterministic for a fixed seed")
	}
	if !strings.HasPrefix(a, "P\ttemp\tcontinuous\nP\tcond\tcategorical\n") {
		t.Fatalf("header: %q", a[:40])
	}
	if strings.Count(a, "\n") < 10*3 {
		t.Fatalf("suspiciously small seed dataset:\n%s", a)
	}
}
