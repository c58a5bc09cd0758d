package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/crhkit/crh/internal/baseline"
	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/synth"
)

// testServer starts an httptest server around a fresh Server.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues a request and decodes the JSON response into out (unless
// nil), returning the status code.
func doJSON(t *testing.T, method, url string, body io.Reader, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func mustCreate(t *testing.T, base, name, tsv string) {
	t.Helper()
	if code := doJSON(t, "POST", base+"/v1/datasets/"+name, strings.NewReader(tsv), nil); code != http.StatusCreated {
		t.Fatalf("create %s: status %d", name, code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var out map[string]string
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &out); code != 200 || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, out)
	}
}

func TestMethodsSharesRegistry(t *testing.T) {
	_, ts := testServer(t)
	var out struct {
		Methods []string `json:"methods"`
	}
	doJSON(t, "GET", ts.URL+"/v1/methods", nil, &out)
	want := append([]string{"crh"}, baseline.Names()...)
	if fmt.Sprint(out.Methods) != fmt.Sprint(want) {
		t.Fatalf("methods = %v, want %v", out.Methods, want)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	_, ts := testServer(t)
	base := ts.URL

	mustCreate(t, base, "weather", testTSV)
	if code := doJSON(t, "POST", base+"/v1/datasets/weather", strings.NewReader(testTSV), nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/datasets/weather", strings.NewReader("garbage\tline"), nil); code != http.StatusConflict {
		// name collision wins over body parse here; a bad body on a new
		// name must 400:
		t.Fatalf("create: %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/datasets/other", strings.NewReader("garbage\tline"), nil); code != http.StatusBadRequest {
		t.Fatalf("bad TSV: %d", code)
	}

	var info DatasetInfo
	if code := doJSON(t, "GET", base+"/v1/datasets/weather", nil, &info); code != 200 {
		t.Fatalf("info: %d", code)
	}
	if info.Version != 1 || info.Sources != 2 || info.Observations != 8 {
		t.Fatalf("info = %+v", info)
	}

	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	doJSON(t, "GET", base+"/v1/datasets", nil, &list)
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "weather" {
		t.Fatalf("list = %+v", list)
	}

	if code := doJSON(t, "DELETE", base+"/v1/datasets/weather", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, "GET", base+"/v1/datasets/weather", nil, nil); code != http.StatusNotFound {
		t.Fatalf("info after delete: %d", code)
	}
	if code := doJSON(t, "DELETE", base+"/v1/datasets/weather", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}
}

// TestCreateTruthForClaimlessObject: a ground-truth row may name an
// object, and a category, that no claim mentions. The upload is
// accepted, and neither name reaches the served dataset: objects and
// categories are interned from claims only.
func TestCreateTruthForClaimlessObject(t *testing.T) {
	s, ts := testServer(t)
	var info DatasetInfo
	code := doJSON(t, "POST", ts.URL+"/v1/datasets/d", strings.NewReader(testTSV+"T\to9\tcond\thail\n"), &info)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if !info.HasTruth || info.Objects != 2 || info.Observations != 8 {
		t.Fatalf("info = %+v", info)
	}
	e, _ := s.registry.Get("d")
	cond := e.Snapshot().Data.Prop(1)
	if id, ok := cond.CatID("hail"); ok {
		t.Fatalf("unclaimed category resolves to code %d of %d", id, cond.NumCats())
	}
}

// checkTruthsMatch asserts the response truths equal a direct run's table.
func checkTruthsMatch(t *testing.T, d *data.Dataset, want *data.Table, got []TruthJSON) {
	t.Helper()
	wantCount := want.Count()
	if len(got) != wantCount {
		t.Fatalf("%d truths in response, want %d", len(got), wantCount)
	}
	byKey := make(map[string]TruthValue, len(got))
	for _, tr := range got {
		byKey[tr.Object+"\x00"+tr.Property] = tr.Value
	}
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			v, ok := want.GetAt(i, m)
			if !ok {
				continue
			}
			p := d.Prop(m)
			gotV, ok := byKey[d.ObjectName(i)+"\x00"+p.Name]
			if !ok {
				t.Fatalf("missing truth for %s/%s", d.ObjectName(i), p.Name)
			}
			if p.Type == data.Categorical {
				if !gotV.IsCat || gotV.Cat != p.CatName(int(v.C)) {
					t.Fatalf("truth %s/%s = %+v, want %s", d.ObjectName(i), p.Name, gotV, p.CatName(int(v.C)))
				}
			} else if gotV.IsCat || math.Abs(gotV.F-v.F) > 1e-12 {
				t.Fatalf("truth %s/%s = %+v, want %v", d.ObjectName(i), p.Name, gotV, v.F)
			}
		}
	}
}

func TestResolveMatchesDirectRun(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)

	var env struct {
		Cached    bool `json:"cached"`
		Coalesced bool `json:"coalesced"`
		ResolveResponse
	}
	code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), &env)
	if code != 200 {
		t.Fatalf("resolve: %d", code)
	}
	if env.Cached || env.Coalesced {
		t.Fatalf("first resolve flagged cached=%v coalesced=%v", env.Cached, env.Coalesced)
	}
	if env.Method != "crh" || env.Version != 1 || env.Converged == nil {
		t.Fatalf("envelope = %+v", env.ResolveResponse)
	}

	d, _, err := data.Decode(strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(d, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkTruthsMatch(t, d, want.Truths, env.Truths)
	for k := 0; k < d.NumSources(); k++ {
		if w := env.Weights.Get(d.SourceName(k)); math.Abs(w-want.Weights[k]) > 1e-12 {
			t.Fatalf("weight %s = %v, want %v", d.SourceName(k), w, want.Weights[k])
		}
	}
}

func TestResolveOptionsAndBaselines(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)

	var env struct{ ResolveResponse }
	// Non-default options take a distinct cache key and still work.
	code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve",
		strings.NewReader(`{"options":{"continuous_loss":"squared","weights":"exp-sum","confidence":true}}`), &env)
	if code != 200 {
		t.Fatalf("options resolve: %d", code)
	}
	if len(env.Truths) == 0 || env.Truths[0].Confidence == nil {
		t.Fatalf("confidence missing: %+v", env.Truths)
	}

	// A baseline by registry name.
	env = struct{ ResolveResponse }{}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve",
		strings.NewReader(`{"method":"Median"}`), &env); code != 200 {
		t.Fatalf("baseline resolve: %d", code)
	}
	if env.Method != "Median" || len(env.Truths) == 0 {
		t.Fatalf("baseline response: %+v", env.ResolveResponse)
	}

	// Unknown method and bad options are 400s.
	for _, body := range []string{`{"method":"nope"}`, `{"options":{"weights":"wat"}}`, `{"options":{"weights":"top-j","top_j":-1}}`} {
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(body), nil); code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, code)
		}
	}

	// Resolving an empty dataset is a 422, not a 500.
	mustCreate(t, ts.URL, "empty", "")
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/empty/resolve", nil, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("empty resolve: %d", code)
	}
}

// truncatedWeightsMethod breaks the Method contract on purpose: it
// returns one weight fewer than the dataset has sources.
type truncatedWeightsMethod struct{}

func (truncatedWeightsMethod) Name() string { return "truncated-weights" }

func (truncatedWeightsMethod) Resolve(d *data.Dataset) (*data.Table, []float64) {
	truths, _ := baseline.Mean{}.Resolve(d)
	return truths, make([]float64, d.NumSources()-1)
}

// TestComputeWeightsMismatch: a method returning the wrong number of
// weights used to silently truncate the served weights map; it must now
// be an internal error that maps to a 500, never a partial response.
func TestComputeWeightsMismatch(t *testing.T) {
	d, _, err := data.Decode(strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Version: 1, Data: d}
	req := &ResolveRequest{}
	req.normalize()
	req.Method = "truncated-weights"

	resp, err := compute("d", snap, req, truncatedWeightsMethod{}, 1, nil)
	if err == nil {
		t.Fatalf("compute served truncated weights: %+v", resp.Weights)
	}
	if !errors.Is(err, errInternal) {
		t.Fatalf("err = %v, want errInternal", err)
	}
	if got := resolveErrorStatus(err); got != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", got)
	}
	// The ordinary compute failure (solver error on an empty dataset)
	// must stay a 422.
	if got := resolveErrorStatus(errors.New("no entries")); got != http.StatusUnprocessableEntity {
		t.Fatalf("non-internal status = %d, want 422", got)
	}
}

func TestResolveCacheHit(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)

	var first, second struct {
		Cached bool `json:"cached"`
		ResolveResponse
	}
	doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), &first)
	doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", nil, &second) // empty body ≡ {}
	if first.Cached {
		t.Fatal("first resolve cached")
	}
	if !second.Cached {
		t.Fatal("identical second resolve not cached")
	}
	snap := s.Stats().Snapshot(s.registry.cachedResults(), s.cacheCap)
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 || snap.Cache.Size != 1 {
		t.Fatalf("cache stats = %+v", snap.Cache)
	}
	// Different options must miss.
	var third struct {
		Cached bool `json:"cached"`
	}
	doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{"options":{"weights":"exp-sum"}}`), &third)
	if third.Cached {
		t.Fatal("different options served from cache")
	}
}

// TestSupersededResultsDropped: results live on the version they were
// computed for, so after each ingest only the current version's result
// is kept — crhd_cache_entries and /v1/stats report one, not one per
// version ever resolved.
func TestSupersededResultsDropped(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)
	resolve := func() {
		t.Helper()
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), nil); code != 200 {
			t.Fatalf("resolve: status %d", code)
		}
	}
	resolve()
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"observations":[{"source":"s3","object":"o%d","property":"temp","value":%d}]}`, 3+i, 20+i)
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/observations", strings.NewReader(body), nil); code != 200 {
			t.Fatalf("ingest %d: status %d", i, code)
		}
		resolve()
	}
	var stats StatsSnapshot
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Cache.Size != 1 || stats.Cache.Misses != 4 {
		t.Fatalf("cache = %+v, want size 1 after 4 misses", stats.Cache)
	}
	var exp strings.Builder
	if err := s.metrics.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp.String(), "crhd_cache_entries 1\n") {
		t.Fatalf("exposition lacks crhd_cache_entries 1:\n%s", exp.String())
	}
}

// TestRecreatedDatasetResolvesFresh: a deleted dataset's results go with
// its snapshots, so a dataset recreated under the same name with other
// claims is computed afresh, never served the old dataset's result.
func TestRecreatedDatasetResolvesFresh(t *testing.T) {
	_, ts := testServer(t)
	type envelope struct {
		Cached bool `json:"cached"`
		ResolveResponse
	}
	resolve := func() envelope {
		t.Helper()
		var env envelope
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), &env); code != 200 {
			t.Fatalf("resolve: status %d", code)
		}
		return env
	}
	mustCreate(t, ts.URL, "d", testTSV)
	if first, second := resolve(), resolve(); first.Cached || !second.Cached {
		t.Fatalf("cached flags %v/%v, want false/true", first.Cached, second.Cached)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/d", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	const other = "P\ttemp\tcontinuous\nV\to1\ttemp\ts1\t40\nV\to1\ttemp\ts2\t40\n"
	mustCreate(t, ts.URL, "d", other)
	env := resolve()
	if env.Cached || env.Version != 1 {
		t.Fatalf("recreated dataset: cached %v at version %d, want a fresh computation at 1", env.Cached, env.Version)
	}
	if len(env.Truths) != 1 || env.Truths[0].Object != "o1" || env.Truths[0].Value.F != 40 {
		t.Fatalf("recreated dataset's truths = %+v, want o1/temp = 40", env.Truths)
	}
}

// TestResolveEmptyChunkedBody: an empty body of undeclared length
// selects the defaults, as no body or Content-Length: 0 does.
func TestResolveEmptyChunkedBody(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var length int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		length = r.ContentLength
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	mustCreate(t, ts.URL, "d", testTSV)

	// A reader of unknown length makes the client send the body chunked.
	var env struct {
		Cached bool `json:"cached"`
		ResolveResponse
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", io.MultiReader(), &env); code != 200 {
		t.Fatalf("empty chunked body: status %d", code)
	}
	if length != -1 {
		t.Fatalf("request declared Content-Length %d; the test needs an undeclared length", length)
	}
	if env.Method != MethodCRH || env.Converged == nil {
		t.Fatalf("empty chunked body did not select the CRH defaults: %+v", env.ResolveResponse)
	}
	// The defaults are the {} request's: the next {} resolve is a hit.
	if doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), &env); !env.Cached {
		t.Fatal("{} after an empty chunked body missed the cache")
	}
}

// TestConcurrentIdenticalResolves is the issue's acceptance criterion:
// concurrent identical resolve requests on the same dataset version must
// perform exactly one CRH computation, observable via the /v1/stats
// coalesce and cache counters.
func TestConcurrentIdenticalResolves(t *testing.T) {
	s, ts := testServer(t)

	// A dataset big enough that the computation is still inflight when
	// the followers arrive.
	d, _ := synth.Weather(synth.WeatherConfig{Seed: 7, Cities: 30, Days: 40})
	var buf bytes.Buffer
	if err := data.Encode(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, ts.URL, "big", buf.String())

	const clients = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	truths := make([][]TruthJSON, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var env struct{ ResolveResponse }
			if code := doJSON(t, "POST", ts.URL+"/v1/datasets/big/resolve", strings.NewReader(`{}`), &env); code != 200 {
				t.Errorf("client %d: status %d", i, code)
				return
			}
			truths[i] = env.Truths
		}(i)
	}
	close(start)
	wg.Wait()

	var stats StatsSnapshot
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Coalesce.Leaders != 1 {
		t.Fatalf("%d computations for %d identical concurrent requests, want exactly 1 (stats: %+v)",
			stats.Coalesce.Leaders, clients, stats.Coalesce)
	}
	if got := stats.Coalesce.Followers + stats.Cache.Hits; got != clients-1 {
		t.Fatalf("followers(%d) + cache hits(%d) = %d, want %d",
			stats.Coalesce.Followers, stats.Cache.Hits, got, clients-1)
	}
	if stats.Requests.Resolves != clients {
		t.Fatalf("resolves = %d, want %d", stats.Requests.Resolves, clients)
	}
	if stats.ResolveLatency.Count != clients {
		t.Fatalf("latency observations = %d, want %d", stats.ResolveLatency.Count, clients)
	}
	for i := 1; i < clients; i++ {
		if len(truths[i]) != len(truths[0]) {
			t.Fatalf("client %d got %d truths, client 0 got %d", i, len(truths[i]), len(truths[0]))
		}
	}
	_ = s
}

// TestIngestThenResolveMatchesFreshRun is the second acceptance
// criterion: after live ingest, a resolve must return truths identical to
// a fresh crh.Run over the complete dataset.
func TestIngestThenResolveMatchesFreshRun(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)

	ingest := `{"observations":[
		{"source":"s1","object":"o3","property":"temp","value":31},
		{"source":"s2","object":"o3","property":"temp","value":29},
		{"source":"s3","object":"o3","property":"temp","value":30},
		{"source":"s3","object":"o3","property":"cond","value":"fog"},
		{"source":"s1","object":"o3","property":"cond","value":"fog"},
		{"source":"s2","object":"o1","property":"humidity","value":0.5}
	]}`
	var ing struct {
		Version  int64 `json:"version"`
		Ingested int   `json:"ingested"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/observations", strings.NewReader(ingest), &ing); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	if ing.Version != 2 || ing.Ingested != 6 {
		t.Fatalf("ingest response: %+v", ing)
	}

	var env struct {
		Cached bool `json:"cached"`
		ResolveResponse
	}
	doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), &env)
	if env.Version != 2 {
		t.Fatalf("resolve version = %d, want 2", env.Version)
	}

	// Fresh ground-truth run: decode the same TSV, add the same
	// observations, run directly.
	d, _, err := data.Decode(strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	b := data.NewBuilder()
	for k := 0; k < d.NumSources(); k++ {
		b.Source(d.SourceName(k))
	}
	for m := 0; m < d.NumProps(); m++ {
		b.MustProperty(d.Prop(m).Name, d.Prop(m).Type)
	}
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			p := d.Prop(m)
			d.ForEntry(d.Entry(i, m), func(k int, v data.Value) {
				if p.Type == data.Categorical {
					if err := b.ObserveCat(d.SourceName(k), d.ObjectName(i), p.Name, p.CatName(int(v.C))); err != nil {
						t.Error(err)
					}
				} else {
					if err := b.ObserveFloat(d.SourceName(k), d.ObjectName(i), p.Name, v.F); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
	for _, o := range []struct {
		src, obj, prop string
		f              float64
		cat            string
		isCat          bool
	}{
		{"s1", "o3", "temp", 31, "", false},
		{"s2", "o3", "temp", 29, "", false},
		{"s3", "o3", "temp", 30, "", false},
		{"s3", "o3", "cond", 0, "fog", true},
		{"s1", "o3", "cond", 0, "fog", true},
		{"s2", "o1", "humidity", 0.5, "", false},
	} {
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
	full := b.Build()
	want, err := core.Run(full, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkTruthsMatch(t, full, want.Truths, env.Truths)
	for k := 0; k < full.NumSources(); k++ {
		if w := env.Weights.Get(full.SourceName(k)); math.Abs(w-want.Weights[k]) > 1e-12 {
			t.Fatalf("weight %s = %v, want %v", full.SourceName(k), w, want.Weights[k])
		}
	}
}

func TestIncrementalEndpoint(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts.URL, "d", "")

	for _, batch := range []string{
		`{"observations":[
			{"source":"a","object":"o1","property":"temp","value":10},
			{"source":"b","object":"o1","property":"temp","value":18}
		]}`,
		`{"observations":[
			{"source":"a","object":"o2","property":"temp","value":20},
			{"source":"b","object":"o2","property":"temp","value":21}
		]}`,
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/observations", strings.NewReader(batch), nil); code != 200 {
			t.Fatalf("ingest: %d", code)
		}
	}

	var inc struct {
		Version int64              `json:"version"`
		Chunks  int                `json:"chunks"`
		Truths  []TruthJSON        `json:"truths"`
		Weights map[string]float64 `json:"weights"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/d/incremental", nil, &inc); code != 200 {
		t.Fatalf("incremental: %d", code)
	}
	if inc.Version != 3 || inc.Chunks != 2 {
		t.Fatalf("incremental = %+v", inc)
	}
	if len(inc.Truths) != 2 {
		t.Fatalf("warm truths = %+v", inc.Truths)
	}
	if len(inc.Weights) != 2 {
		t.Fatalf("warm weights = %+v", inc.Weights)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/nope/incremental", nil, nil); code != http.StatusNotFound {
		t.Fatalf("incremental on missing dataset: %d", code)
	}
}

func TestIngestErrors(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)
	for _, body := range []string{
		`not json`,
		`{"observations":[]}`,
		`{"observations":[{"source":"s1","object":"o1","property":"cond","value":3}]}`,
		`{"observations":[{"source":"s9","object":"o1","property":"temp","value":null}]}`,
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/observations", strings.NewReader(body), nil); code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, code)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/nope/observations", strings.NewReader(`{}`), nil); code != http.StatusNotFound {
		t.Fatalf("ingest to missing dataset: %d", code)
	}
}

// TestHealthzV1 verifies the readiness endpoint reports the dataset
// count and build identity.
func TestHealthzV1(t *testing.T) {
	_, ts := testServer(t)
	var out HealthResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &out); code != 200 {
		t.Fatalf("v1/healthz: %d", code)
	}
	if out.Status != "ok" || out.Datasets != 0 {
		t.Fatalf("healthz = %+v", out)
	}
	if out.Build.GoVersion == "" {
		t.Fatalf("healthz build info empty: %+v", out.Build)
	}
	mustCreate(t, ts.URL, "weather", testTSV)
	doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &out)
	if out.Datasets != 1 {
		t.Fatalf("datasets after create = %d, want 1", out.Datasets)
	}
}

// TestMetricsEndpoint drives the API and checks the Prometheus text
// exposition covers requests, cache, coalescing, ingest, and latency.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	base := ts.URL
	mustCreate(t, base, "weather", testTSV)
	ingest := `{"observations":[{"source":"s1","object":"oX","property":"temp","value":1}]}`
	if code := doJSON(t, "POST", base+"/v1/datasets/weather/observations", strings.NewReader(ingest), nil); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	for i := 0; i < 2; i++ { // second resolve is a cache hit
		if code := doJSON(t, "POST", base+"/v1/datasets/weather/resolve", strings.NewReader(`{}`), nil); code != 200 {
			t.Fatalf("resolve %d failed", i)
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`crhd_requests_total{op="resolve"} 2`,
		`crhd_requests_total{op="create"} 1`,
		`crhd_requests_total{op="ingest"} 1`,
		`crhd_observations_ingested_total 1`,
		`crhd_cache_hits_total 1`,
		`crhd_cache_misses_total 1`,
		`crhd_coalesce_total{role="leader"} 1`,
		`crhd_resolve_latency_seconds_count 2`,
		`crhd_resolve_latency_seconds_bucket{le="+Inf"} 2`,
		`crhd_datasets 1`,
		`crhd_cache_entries 1`,
		`crh_stream_chunks_total 1`,
		`crh_stream_observations_total 1`,
		"# TYPE crhd_requests_total counter",
		"# TYPE crhd_resolve_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestSolverConvergenceMetrics: each CRH computation records its
// iteration count, and one that stops at MaxIters counts as
// unconverged. Cache hits and baseline methods record nothing.
func TestSolverConvergenceMetrics(t *testing.T) {
	s, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)
	scrape := func() string {
		var exp strings.Builder
		if err := s.metrics.WritePrometheus(&exp); err != nil {
			t.Fatal(err)
		}
		return exp.String()
	}
	resolve := func(body string) ResolveResponse {
		var out ResolveResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(body), &out); code != 200 {
			t.Fatalf("resolve %s: status %d", body, code)
		}
		return out
	}
	expect := func(when string, want ...string) {
		t.Helper()
		exp := scrape()
		for _, w := range want {
			if !strings.Contains(exp, w+"\n") {
				t.Errorf("%s: metrics missing %q", when, w)
			}
		}
		if t.Failed() {
			t.Fatalf("exposition:\n%s", exp)
		}
	}
	for i := 0; i < 2; i++ { // the second is a cache hit
		if out := resolve(`{"options":{"max_iters":1}}`); out.Converged == nil || *out.Converged || out.Iterations != 1 {
			t.Fatalf("max_iters 1: converged %v after %d iterations, want false after 1", out.Converged, out.Iterations)
		}
	}
	expect("one capped computation", "crhd_solver_iterations_count 1", `crhd_solver_iterations_bucket{le="1"} 1`, "crhd_solver_unconverged_total 1")
	if out := resolve(`{}`); out.Converged == nil || !*out.Converged {
		t.Fatalf("default resolve did not converge: %+v", out.Converged)
	}
	resolve(`{"method":"Voting"}`)
	expect("then a default and a baseline resolve", "crhd_solver_iterations_count 2", "crhd_solver_unconverged_total 1")
}

// TestResolveStageInstrumentation drives resolves through the HTTP
// handler and checks the per-stage timeline lands in both the stats
// document and the exposition: a miss exercises decode/cache/queue/
// solve/encode, a hit exercises decode/cache/encode but never solve.
func TestResolveStageInstrumentation(t *testing.T) {
	_, ts := testServer(t)
	mustCreate(t, ts.URL, "d", testTSV)
	for i := 0; i < 3; i++ { // 1 miss + 2 hits
		if code := doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), nil); code != 200 {
			t.Fatalf("resolve %d failed", i)
		}
	}

	var stats StatsSnapshot
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	wantCounts := map[string]int64{
		"decode": 3, "cache": 3, "encode": 3, // every request
		"solve": 1, "queue": 1, // leader only
		"coalesce": 0, // nothing raced
	}
	for name, want := range wantCounts {
		st, ok := stats.Stages[name]
		if !ok {
			t.Fatalf("stage %q missing from /v1/stats", name)
		}
		if st.Count != want {
			t.Errorf("stage %q count = %d, want %d", name, st.Count, want)
		}
	}
	// Quantiles must be present on exercised stages, absent on coalesce.
	if stats.Stages["solve"].P50Ms == nil {
		t.Errorf("solve stage has no p50 after a computation")
	}
	if stats.Stages["coalesce"].P50Ms != nil {
		t.Errorf("untouched coalesce stage reports quantiles")
	}
	var shareSum float64
	for _, st := range stats.Stages {
		shareSum += st.ShareOfTotal
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("stage shares sum to %v, want 1", shareSum)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`crhd_stage_seconds_count{stage="solve"} 1`,
		`crhd_stage_seconds_count{stage="decode"} 3`,
		`crhd_stage_seconds_count{stage="encode"} 3`,
		"# TYPE crhd_stage_seconds histogram",
		"crhd_cache_hit_ratio 0.6666666666666666",
		"# TYPE go_goroutines gauge",
		"go_heap_inuse_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestIngestStageInstrumentation: one durable ingest through the
// handler populates every ingest stage histogram exactly once.
func TestIngestStageInstrumentation(t *testing.T) {
	s := durableServer(t, t.TempDir(), Config{})
	defer mustClose(t, s)
	if _, err := s.registry.Create("d", strings.NewReader(testTSV)); err != nil {
		t.Fatal(err)
	}
	body := `{"observations":[{"source":"s3","object":"o3","property":"temp","value":30}]}`
	req := httptest.NewRequest("POST", "/v1/datasets/d/observations", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var exp strings.Builder
	if err := s.metrics.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, name := range ingestStageNames {
		want := `crhd_ingest_stage_seconds_count{stage="` + name + `"} 1`
		if !strings.Contains(exp.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", exp.String())
	}
}

// TestServerStageLog wires Config.StageLog end to end: with sampling
// every request, each successful resolve emits one StageTimings record.
func TestServerStageLog(t *testing.T) {
	var mu sync.Mutex
	var recs []StageTimings
	s, err := New(Config{
		StageLogEvery: 1,
		StageLog: func(rec StageTimings) {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustCreate(t, ts.URL, "d", testTSV)
	doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), nil)
	doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{}`), nil)
	// A failed resolve must not log a stage record.
	doJSON(t, "POST", ts.URL+"/v1/datasets/d/resolve", strings.NewReader(`{"method":"nope"}`), nil)

	mu.Lock()
	defer mu.Unlock()
	if len(recs) != 2 {
		t.Fatalf("stage log got %d records, want 2 (errors must not log)", len(recs))
	}
	if recs[0].Cached || !recs[1].Cached {
		t.Errorf("cached flags = %v/%v, want false/true", recs[0].Cached, recs[1].Cached)
	}
	if recs[0].Dataset != "d" || recs[0].Total <= 0 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[0].Stages[stageSolve] <= 0 {
		t.Errorf("miss record has no solve time: %v", recs[0].Stages)
	}
	if recs[1].Stages[stageSolve] != 0 {
		t.Errorf("hit record has solve time: %v", recs[1].Stages)
	}
}
