package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call into a layer, or a
// phase of one. Spans of one request share Req; Parent is the enclosing
// span's ID, 0 at the top.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run began
	End    float64 `json:"end_ms"`   // see Start
}

// spanLog records spans in memory; they are written out when the run
// ends. A nil *spanLog records nothing, which is how untraced rounds run:
// every method is then a no-op. Safe for concurrent use.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // crh:guardedby mu
	next  int64  // crh:guardedby mu
	reqs  int64  // crh:guardedby mu
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

// newRequest returns a fresh request identifier.
func (l *spanLog) newRequest() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reqs++
	return l.reqs
}

// add records a span and returns its ID.
func (l *spanLog) add(name string, parent, req int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	s := span{Parent: parent, Req: req, Name: name, Start: ms(start.Sub(l.t0)), End: ms(end.Sub(l.t0))}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	s.ID = l.next
	l.spans = append(l.spans, s)
	return s.ID
}

// selfTime sums, per span name, the spans' count, total duration and self
// time: each span's duration minus the part its children cover. Children
// of one parent never overlap here (they are sequential phases of one
// call), so the covered part is the sum of their durations.
type selfTime struct {
	name          string
	count         int
	totalMs, self float64
}

func (l *spanLog) selfTimes() []selfTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := make(map[int64]float64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*selfTime)
	var names []string
	for _, s := range l.spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		st.count++
		st.totalMs += d
		st.self += d - covered[s.ID]
	}
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeFile writes every span as one JSON object per line.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := l.write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func (l *spanLog) write(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write span: %w", err)
		}
	}
	return bw.Flush()
}
