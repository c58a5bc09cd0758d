package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/synth"
)

// benchServer returns a server preloaded with a moderate mixed-type
// dataset (9 sources, continuous + categorical properties).
func benchServer(b *testing.B) *Server {
	b.Helper()
	d, _ := synth.Weather(synth.WeatherConfig{Seed: 42, Cities: 10, Days: 20})
	var buf bytes.Buffer
	if err := data.Encode(&buf, d, nil); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.registry.Create("bench", &buf); err != nil {
		b.Fatal(err)
	}
	return s
}

// post issues one resolve through the handler stack (no network).
func post(b *testing.B, s *Server, body string) {
	req := httptest.NewRequest("POST", "/v1/datasets/bench/resolve", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// resetResults empties the bench snapshot's results table, so the next
// request computes afresh.
func resetResults(s *Server) {
	e, _ := s.registry.Get("bench")
	e.Snapshot().results = results{}
}

// BenchmarkResolveCacheMiss measures a full computation + response per
// iteration: the snapshot's results table is emptied each round, so
// every request is a miss. This is the server's worst-case hot path.
func BenchmarkResolveCacheMiss(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetResults(s)
		b.StartTimer()
		post(b, s, `{}`)
	}
}

// BenchmarkResolveCacheHit measures the O(1) repeated-query path: every
// request after the first is served from the snapshot's results table
// without touching the solver.
func BenchmarkResolveCacheHit(b *testing.B) {
	s := benchServer(b)
	post(b, s, `{}`) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, s, `{}`)
	}
}

// Concurrent benchmarks: one iteration = serving `fanout` simultaneous
// resolve requests on the same dataset version.
//
// The coalesced variant sends identical requests, so the results table
// collapses them to one computation. The uncoalesced variant defeats its
// caching and coalescing with distinct max_iters values far above
// the convergence point — every request costs a full computation of
// identical work, which is exactly what a server without coalescing would
// do for identical requests.
const fanout = 8

func BenchmarkConcurrentResolveCoalesced(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetResults(s) // force one fresh computation per round
		b.StartTimer()
		var wg sync.WaitGroup
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				post(b, s, `{}`)
			}()
		}
		wg.Wait()
	}
}

func BenchmarkConcurrentResolveUncoalesced(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetResults(s)
		b.StartTimer()
		var wg sync.WaitGroup
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				// Distinct keys, identical work: convergence stops the
				// solver long before 100+j iterations.
				post(b, s, fmt.Sprintf(`{"options":{"max_iters":%d}}`, 100+j))
			}(j)
		}
		wg.Wait()
	}
}

// BenchmarkEncodeResolveBody measures the once-per-computation body
// encode (pooled append encoder) against BenchmarkEncodeStdlib, the
// reflection-based encoding/json path it replaced.
func BenchmarkEncodeResolveBody(b *testing.B) {
	resp := benchResponse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = encodeResolveBody(resp)
	}
}

func BenchmarkEncodeStdlib(b *testing.B) {
	resp := benchResponse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stdlibJSON(resolveEnvelope{ResolveResponse: resp}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResponse computes one real response over the bench dataset.
func benchResponse(b *testing.B) *ResolveResponse {
	b.Helper()
	s := benchServer(b)
	e, _ := s.registry.Get("bench")
	req := &ResolveRequest{}
	req.normalize()
	resp, err := compute("bench", e.Snapshot(), req, nil, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return resp
}

// BenchmarkIngest measures one live ingest (validate, append to the
// claim log, build the new version's snapshot, advance the warm I-CRH
// state) at two preloaded log sizes. Each batch re-claims an existing
// object from existing sources, so the dataset's shape stays put, and
// the dataset is recreated with the timer stopped every ingestRecreate
// batches, so the log stays within that many batches of its preloaded
// size whatever b.N is.
func BenchmarkIngest(b *testing.B) {
	const ingestRecreate = 64
	for _, days := range []int{20, 200} {
		d, _ := synth.Weather(synth.WeatherConfig{Seed: 42, Cities: 10, Days: days})
		var buf bytes.Buffer
		if err := data.Encode(&buf, d, nil); err != nil {
			b.Fatal(err)
		}
		upload := buf.Bytes()
		b.Run(fmt.Sprintf("claims=%d", d.NumObservations()), func(b *testing.B) {
			r := NewRegistry(1)
			var e *entry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%ingestRecreate == 0 {
					b.StopTimer()
					r.Delete("bench")
					var err error
					if e, err = r.Create("bench", bytes.NewReader(upload)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				obj := d.ObjectName(i % d.NumObjects())
				_, err := e.Ingest([]Observation{
					{Source: d.SourceName(0), Object: obj, Property: "high_temp", Value: num(70)},
					{Source: d.SourceName(1), Object: obj, Property: "high_temp", Value: num(75)},
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
