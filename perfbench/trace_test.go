package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// Spans arrive from every closed-loop worker at once; each op here is a
// 3 ms span with a 1 ms child, so its self time is 2 ms.
func TestSpanLogConcurrent(t *testing.T) {
	sp := newSpanLog(time.Now())
	const n = 400
	closedLoop(2, n, func(_, _ int) {
		req := sp.newRequest()
		t0 := time.Now()
		id := sp.add("op", 0, req, t0, t0.Add(3*time.Millisecond))
		sp.add("op.child", id, req, t0, t0.Add(time.Millisecond))
	})
	st := sp.selfTimes()
	if len(st) != 2 || st[0].name != "op" || st[1].name != "op.child" {
		t.Fatalf("self times %+v, want op and op.child", st)
	}
	if st[0].count != n || math.Abs(st[0].self/n-2) > 1e-6 || math.Abs(st[1].self/n-1) > 1e-6 {
		t.Errorf("op: %d spans, self %.6f ms each; child self %.6f ms each; want %d, 2, 1",
			st[0].count, st[0].self/n, st[1].self/n, n)
	}
	var buf bytes.Buffer
	if err := sp.write(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2*n {
		t.Errorf("wrote %d spans, want %d", lines, 2*n)
	}
}

// Untraced rounds pass a nil log: recording must cost nothing and panic
// nowhere.
func TestNilSpanLog(t *testing.T) {
	var sp *spanLog
	if id := sp.add("x", 0, sp.newRequest(), time.Now(), time.Now()); id != 0 {
		t.Errorf("nil log returned span ID %d", id)
	}
}
