package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	crh "github.com/crhkit/crh"
)

const smokeTSV = `P	temp	continuous
P	cond	categorical
V	o1	temp	s1	10
V	o1	temp	s2	12
V	o1	cond	s1	sunny
V	o1	cond	s2	sunny
V	o2	temp	s1	20
V	o2	temp	s2	26
V	o2	cond	s1	rain
V	o2	cond	s2	snow
`

// TestSmoke boots crhd on an ephemeral port, preloads a dataset from
// disk, ingests a batch over HTTP, resolves, and checks the truths match
// a direct crh.Run on the equivalent full dataset.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "weather.tsv")
	if err := os.WriteFile(path, []byte(smokeTSV), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var stderr bytes.Buffer
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "weather=" + path}, &stderr, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-done:
		t.Fatalf("server exited early with code %d: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}

	get := func(path string, out any) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode
	}
	post := func(path, body string, out any) int {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode
	}

	if code := get("/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}

	// The preloaded dataset is present.
	var info struct {
		Version      int64 `json:"version"`
		Observations int   `json:"observations"`
	}
	if code := get("/v1/datasets/weather", &info); code != 200 || info.Version != 1 || info.Observations != 8 {
		t.Fatalf("preloaded info: %+v", info)
	}

	// Live ingest.
	ingest := `{"observations":[
		{"source":"s1","object":"o3","property":"temp","value":30},
		{"source":"s2","object":"o3","property":"temp","value":34},
		{"source":"s2","object":"o3","property":"cond","value":"fog"}
	]}`
	if code := post("/v1/datasets/weather/observations", ingest, nil); code != 200 {
		t.Fatalf("ingest: %d", code)
	}

	// Resolve over HTTP.
	var env struct {
		Version int64 `json:"version"`
		Truths  []struct {
			Object   string `json:"object"`
			Property string `json:"property"`
			Value    any    `json:"value"`
		} `json:"truths"`
		Weights map[string]float64 `json:"weights"`
	}
	if code := post("/v1/datasets/weather/resolve", `{}`, &env); code != 200 {
		t.Fatalf("resolve: %d", code)
	}
	if env.Version != 2 {
		t.Fatalf("resolve version = %d, want 2", env.Version)
	}

	// Direct run on the equivalent full dataset.
	b := crh.NewBuilder()
	type obs struct {
		src, obj, prop string
		f              float64
		cat            string
		isCat          bool
	}
	all := []obs{
		{"s1", "o1", "temp", 10, "", false},
		{"s2", "o1", "temp", 12, "", false},
		{"s1", "o1", "cond", 0, "sunny", true},
		{"s2", "o1", "cond", 0, "sunny", true},
		{"s1", "o2", "temp", 20, "", false},
		{"s2", "o2", "temp", 26, "", false},
		{"s1", "o2", "cond", 0, "rain", true},
		{"s2", "o2", "cond", 0, "snow", true},
		{"s1", "o3", "temp", 30, "", false},
		{"s2", "o3", "temp", 34, "", false},
		{"s2", "o3", "cond", 0, "fog", true},
	}
	for _, o := range all {
		var err error
		if o.isCat {
			err = b.ObserveCat(o.src, o.obj, o.prop, o.cat)
		} else {
			err = b.ObserveFloat(o.src, o.obj, o.prop, o.f)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	want, err := crh.Run(d, crh.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]any{}
	for _, tr := range env.Truths {
		got[tr.Object+"/"+tr.Property] = tr.Value
	}
	count := 0
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			v, ok := want.Truths.GetAt(i, m)
			if !ok {
				continue
			}
			count++
			p := d.Prop(m)
			key := d.ObjectName(i) + "/" + p.Name
			if p.Type == crh.Categorical {
				if got[key] != p.CatName(int(v.C)) {
					t.Errorf("truth %s = %v, want %s", key, got[key], p.CatName(int(v.C)))
				}
			} else if f, ok := got[key].(float64); !ok || math.Abs(f-v.F) > 1e-12 {
				t.Errorf("truth %s = %v, want %v", key, got[key], v.F)
			}
		}
	}
	if len(env.Truths) != count {
		t.Errorf("server returned %d truths, direct run has %d", len(env.Truths), count)
	}
	for k := 0; k < d.NumSources(); k++ {
		name := d.SourceName(k)
		if w, ok := env.Weights[name]; !ok || math.Abs(w-want.Weights[k]) > 1e-12 {
			t.Errorf("weight %s = %v, want %v", name, env.Weights[name], want.Weights[k])
		}
	}

	// /v1/stats is serving and counted the resolve.
	var stats struct {
		Requests struct {
			Resolves int64 `json:"resolves"`
		} `json:"requests"`
	}
	if code := get("/v1/stats", &stats); code != 200 || stats.Requests.Resolves != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	// Graceful shutdown.
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestDurableRestart boots crhd with -data-dir, ingests, shuts down
// gracefully, boots a second crhd with the same command line, and checks
// the dataset came back at its pre-shutdown version with the ingested
// data (the preload arg is skipped in favor of the recovered state).
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	tsvPath := filepath.Join(dir, "weather.tsv")
	if err := os.WriteFile(tsvPath, []byte(smokeTSV), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "data")
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "interval", "weather=" + tsvPath}

	boot := func() (base string, cancel context.CancelFunc, done chan int, stderr *syncBuffer) {
		ctx, stop := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done = make(chan int, 1)
		stderr = &syncBuffer{}
		go func() { done <- run(ctx, args, stderr, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, stop, done, stderr
		case code := <-done:
			t.Fatalf("server exited early with code %d: %s", code, stderr.String())
		case <-time.After(10 * time.Second):
			t.Fatal("server did not become ready")
		}
		panic("unreachable")
	}
	shutdown := func(cancel context.CancelFunc, done chan int, stderr *syncBuffer) {
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}

	base, cancel, done, stderr := boot()
	ingest := `{"observations":[{"source":"s1","object":"o9","property":"temp","value":42}]}`
	resp, err := http.Post(base+"/v1/datasets/weather/observations", "application/json", strings.NewReader(ingest))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	shutdown(cancel, done, stderr)

	base, cancel, done, stderr = boot()
	defer shutdown(cancel, done, stderr)
	var info struct {
		Version      int64 `json:"version"`
		Observations int   `json:"observations"`
	}
	resp, err = http.Get(base + "/v1/datasets/weather")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if info.Version != 2 || info.Observations != 9 {
		t.Fatalf("recovered dataset: %+v (stderr: %s)", info, stderr.String())
	}
	if !strings.Contains(stderr.String(), "recovered from data dir, skipping preload") {
		t.Errorf("preload of a recovered dataset was not skipped: %s", stderr.String())
	}
}

// TestBadFlags covers the CLI error paths.
func TestBadFlags(t *testing.T) {
	ctx := context.Background()
	var stderr bytes.Buffer
	if code := run(ctx, []string{"-decay", "1.5"}, &stderr, nil); code != 2 {
		t.Fatalf("bad decay: exit %d", code)
	}
	// Checkpointing cannot be turned off. The context is already
	// cancelled, so a crhd that wrongly boots shuts down at once.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, n := range []string{"0", "-1"} {
		if code := run(cancelled, []string{"-addr", "127.0.0.1:0", "-snapshot-every", n}, &stderr, nil); code != 2 {
			t.Fatalf("-snapshot-every %s: exit %d", n, code)
		}
	}
	if code := run(ctx, []string{"no-equals-sign"}, &stderr, nil); code != 2 {
		t.Fatalf("bad preload arg: exit %d", code)
	}
	if code := run(ctx, []string{"x=/does/not/exist.tsv"}, &stderr, nil); code != 1 {
		t.Fatalf("missing preload file: exit %d", code)
	}
	if code := run(ctx, []string{"-addr", "256.256.256.256:99999"}, &stderr, nil); code != 1 {
		t.Fatalf("bad addr: exit %d", code)
	}
}

// TestVersionFlag checks -version prints build identity and exits 0.
func TestVersionFlag(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &stderr, nil); code != 0 {
		t.Fatalf("-version exit %d", code)
	}
	if !strings.Contains(stderr.String(), "crhd ") || !strings.Contains(stderr.String(), "go1") {
		t.Fatalf("-version output %q", stderr.String())
	}
}

// TestPprofAndRequestLog boots crhd with -pprof and verifies the
// profiling endpoints are mounted and that API requests are logged as
// structured JSON records with request IDs.
func TestPprofAndRequestLog(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var stderr syncBuffer
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof"}, &stderr, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-done:
		t.Fatalf("server exited early with code %d: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/v1/datasets", "/metrics", "/healthz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	// The API and pprof requests are logged with ids; /metrics and
	// /healthz are exempt from logging.
	logged := stderr.String()
	for _, want := range []string{`"msg":"request"`, `"req_id":`, `"path":"/v1/datasets"`, `"path":"/debug/pprof/"`, `"status":200`} {
		if !strings.Contains(logged, want) {
			t.Errorf("request log missing %q in:\n%s", want, logged)
		}
	}
	for _, absent := range []string{`"path":"/metrics"`, `"path":"/healthz"`} {
		if strings.Contains(logged, absent) {
			t.Errorf("request log should not contain %q", absent)
		}
	}
}

// TestStageLogFlag boots crhd with -stage-log 1 and checks every
// successful resolve emits a "resolve stages" record with per-stage
// millisecond attributes — solve on the miss, no solve on the hit.
func TestStageLogFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "weather.tsv")
	if err := os.WriteFile(path, []byte(smokeTSV), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var stderr syncBuffer
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-stage-log", "1", "weather=" + path}, &stderr, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-done:
		t.Fatalf("server exited early with code %d: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}

	for i := 0; i < 2; i++ { // miss, then cache hit
		resp, err := http.Post(base+"/v1/datasets/weather/resolve", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("resolve %d: %d", i, resp.StatusCode)
		}
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	logged := stderr.String()
	if got := strings.Count(logged, `"msg":"resolve stages"`); got != 2 {
		t.Fatalf("stage log records = %d, want 2 in:\n%s", got, logged)
	}
	for _, want := range []string{`"dataset":"weather"`, `"solve":`, `"cached":true`, `"cached":false`, `"decode":`, `"total":`} {
		if !strings.Contains(logged, want) {
			t.Errorf("stage log missing %q in:\n%s", want, logged)
		}
	}
	// The cached resolve's record must not carry a solve stage: exactly
	// one record (the miss) mentions solve.
	if got := strings.Count(logged, `"solve":`); got != 1 {
		t.Errorf("records with solve stage = %d, want 1 in:\n%s", got, logged)
	}
}

// syncBuffer is a bytes.Buffer safe for concurrent writers — the server
// goroutine logs to it while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowHeadersDisconnected: a client that sends only part of a
// request line is disconnected once the header timeout passes, instead
// of holding its connection forever.
func TestSlowHeadersDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.NotFoundHandler(), 100*time.Millisecond, time.Minute)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close() // stops Serve, whose return is awaited below
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v: the header timeout did not fire", time.Since(start))
	}
}
