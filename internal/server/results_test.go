package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// computeKey runs key through t as a request would: a hit or a follower
// gets the body already computed, a leader finishes the computation
// with body(key) at the given capacity. It reports whether key was a
// hit.
func computeKey(t *results, key string, capacity int) (body []byte, cached bool) {
	c, cached, leader := t.get(key)
	switch {
	case leader:
		t.finish(c, []byte(key), nil, capacity)
	case !cached:
		t.wait(c)
	}
	return c.body, cached
}

// TestCacheLRUEviction: at capacity, a new result evicts the least
// recently used one, and a hit refreshes a result's recency.
func TestCacheLRUEviction(t *testing.T) {
	var tab results
	computeKey(&tab, "a", 2)
	computeKey(&tab, "b", 2)
	if _, cached := computeKey(&tab, "a", 2); !cached { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	computeKey(&tab, "d", 2) // evicts b
	if tab.len() != 2 {
		t.Fatalf("len = %d, want 2", tab.len())
	}
	for key, want := range map[string]bool{"a": true, "d": true} {
		if body, cached := computeKey(&tab, key, 2); cached != want || string(body) != key {
			t.Fatalf("%s: cached %v body %q, want cached %v", key, cached, body, want)
		}
	}
	if _, cached := computeKey(&tab, "b", 2); cached {
		t.Fatal("b should have been evicted")
	}
}

// TestCacheRefreshExistingKey: a finished key is served, not computed
// again, however often it is asked for, and stays one entry.
func TestCacheRefreshExistingKey(t *testing.T) {
	var tab results
	c, _, _ := tab.get("k")
	tab.finish(c, []byte("v1"), nil, 2)
	for i := 0; i < 3; i++ {
		got, cached, leader := tab.get("k")
		if !cached || leader || got != c || string(got.body) != "v1" {
			t.Fatalf("get %d: cached %v leader %v body %q, want the first computation", i, cached, leader, got.body)
		}
	}
	if tab.len() != 1 {
		t.Fatalf("len = %d, want 1", tab.len())
	}
}

// TestCacheCapacityFloor: a capacity below 1 keeps one finished result
// per dataset version, and the server reports that capacity.
func TestCacheCapacityFloor(t *testing.T) {
	s, err := New(Config{CacheCapacity: -3})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	if _, err := s.registry.Create("d", strings.NewReader(testTSV)); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{}`, `{"method":"Voting"}`} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/datasets/d/resolve", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("resolve %s: status %d", body, rec.Code)
		}
	}
	if snap := s.Stats().Snapshot(s.registry.cachedResults(), s.cacheCap); snap.Cache.Capacity != 1 || snap.Cache.Size != 1 {
		t.Fatalf("cache = %+v, want capacity 1 and size 1", snap.Cache)
	}
}

// TestCacheConcurrent hammers one table from many goroutines; run with
// -race this verifies the locking.
func TestCacheConcurrent(t *testing.T) {
	var tab results
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%32)
				if body, _ := computeKey(&tab, key, 16); string(body) != key {
					t.Errorf("key %s returned body %q", key, body)
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.len() > 16 {
		t.Fatalf("len = %d exceeds capacity", tab.len())
	}
}

// TestFlightGroupCoalesces proves the coalescing guarantee
// deterministically: while one computation for a key is in flight, every
// concurrent request for the same key waits for it and shares its
// result — exactly one execution.
func TestFlightGroupCoalesces(t *testing.T) {
	var tab results
	const followers = 7

	// Hold the leader until every follower is provably blocked on it, so
	// the single-execution assertion is deterministic.
	var waiting sync.WaitGroup
	waiting.Add(followers)
	tab.onWait = waiting.Done

	leader, cached, isLeader := tab.get("k")
	if cached || !isLeader {
		t.Fatalf("first get: cached %v leader %v", cached, isLeader)
	}
	var executions atomic.Int64
	executions.Add(1)
	var wg sync.WaitGroup
	bodies := make([][]byte, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, cached, isLeader := tab.get("k")
			if isLeader {
				executions.Add(1)
				tab.finish(c, []byte("other"), nil, 4)
			} else if !cached {
				tab.wait(c)
			}
			bodies[i] = c.body
		}(i)
	}
	waiting.Wait() // all followers are blocked on the leader
	tab.finish(leader, []byte("v"), nil, 4)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("executed %d times, want exactly 1", n)
	}
	for i, b := range bodies {
		if string(b) != "v" {
			t.Errorf("follower %d got %q, want the leader's body", i, b)
		}
	}
}

// TestFlightGroupDistinctKeys checks distinct keys never coalesce.
func TestFlightGroupDistinctKeys(t *testing.T) {
	var tab results
	var executions atomic.Int64
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			c, cached, leader := tab.get(key)
			if cached || !leader {
				t.Errorf("key %s unexpectedly shared", key)
				return
			}
			executions.Add(1)
			tab.finish(c, []byte(key), nil, 4)
		}(key)
	}
	wg.Wait()
	if n := executions.Load(); n != 3 {
		t.Fatalf("executed %d times, want 3", n)
	}
}

// TestFlightGroupSequentialReexecutes: a failed computation returns its
// error to every waiter and is not kept, so each later request for the
// key computes again.
func TestFlightGroupSequentialReexecutes(t *testing.T) {
	var tab results
	const followers = 3
	var waiting sync.WaitGroup
	tab.onWait = waiting.Done
	for round := 0; round < 3; round++ {
		c, cached, leader := tab.get("k")
		if cached || !leader {
			t.Fatalf("round %d: cached %v leader %v after a failure, want a new computation", round, cached, leader)
		}
		waiting.Add(followers)
		errs := make([]error, followers)
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f, _, _ := tab.get("k")
				tab.wait(f)
				errs[i] = f.err
			}(i)
		}
		waiting.Wait()
		fail := fmt.Errorf("round %d failed", round)
		tab.finish(c, nil, fail, 4)
		wg.Wait()
		for i, err := range errs {
			if !errors.Is(err, fail) {
				t.Fatalf("round %d waiter %d: err %v, want %v", round, i, err, fail)
			}
		}
		if tab.len() != 0 {
			t.Fatalf("round %d: a failed computation was kept", round)
		}
	}
}
