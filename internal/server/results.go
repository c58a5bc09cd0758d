package server

import (
	"container/list"
	"sync"
)

// computation is one resolve computation on a snapshot. done is closed
// when it finishes; body (the encoded response fields, everything after
// the per-request envelope prefix; see encode.go) and err are set
// before that and never change after.
type computation struct {
	key  string
	done chan struct{}
	body []byte
	err  error
	// el is the computation's place in its table's LRU list once it has
	// finished with a body; nil while in flight. Guarded by the table's
	// mu.
	el *list.Element
}

// results is a snapshot's table of resolve computations, keyed by
// cacheKey (method and normalized options). A key maps to a computation
// that is either in flight, so identical requests wait on it instead of
// computing again (coalescing), or finished, so later requests are
// served its body (caching). The table keeps finished computations up to
// a capacity, evicting the least recently used; a failed computation is
// dropped, so the next request retries. A snapshot never changes, so
// nothing in the table goes stale: a superseded snapshot's results are
// dropped with it. The zero value is an empty table.
type results struct {
	mu sync.Mutex
	// crh:guardedby mu
	m map[string]*computation
	// lru lists the finished computations, most recently used first.
	// crh:guardedby mu
	lru list.List

	// onWait, when set, is invoked by a waiter just before it blocks on
	// an in-flight computation. Test instrumentation only.
	onWait func()
}

// get returns key's computation. A finished one is marked most recently
// used and reported cached. An in-flight one is returned for the caller
// to wait on. With neither, get enters a new computation, and the
// caller, its leader, must finish it.
func (t *results) get(key string) (c *computation, cached, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.m[key]; c != nil {
		if c.el != nil {
			t.lru.MoveToFront(c.el)
		}
		return c, c.el != nil, false
	}
	if t.m == nil {
		t.m = make(map[string]*computation)
	}
	c = &computation{key: key, done: make(chan struct{})}
	t.m[key] = c
	return c, false, true
}

// finish records the leader's outcome and releases c's waiters. A body
// is kept, evicting the least recently used finished computations beyond
// capacity; an error is dropped from the table.
func (t *results) finish(c *computation, body []byte, err error, capacity int) {
	c.body, c.err = body, err
	t.mu.Lock()
	if err != nil {
		delete(t.m, c.key)
	} else {
		c.el = t.lru.PushFront(c)
		for t.lru.Len() > capacity {
			delete(t.m, t.lru.Remove(t.lru.Back()).(*computation).key)
		}
	}
	t.mu.Unlock()
	close(c.done)
}

// wait blocks until the in-flight computation c finishes.
func (t *results) wait(c *computation) {
	if t.onWait != nil {
		t.onWait()
	}
	<-c.done
}

// len returns the number of finished computations kept.
func (t *results) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}
