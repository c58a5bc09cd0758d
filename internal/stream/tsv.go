package stream

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/crhkit/crh/internal/data"
)

// TSVStream incrementally reads the library's TSV observation format and
// yields one dataset chunk per timestamp window, without ever
// materializing the full stream — the "never-ending streaming data"
// scenario I-CRH exists for (Section 2.6).
//
// Input contract (checked, with line numbers in errors):
//
//   - P records declare properties before their first use, as in the
//     batch codec. They may appear at any point (new properties can join
//     the stream).
//   - Every object's O record (carrying its timestamp) precedes the
//     object's V records.
//   - Timestamps are non-decreasing: once a record of window w+1 appears,
//     no record of window w may follow. This is the natural order a
//     crawler produces. O records may run ahead of their windows (a file
//     written by data.Encode lists them all first).
//
// Memory stays bounded on a never-ending stream: when a window closes,
// the timestamps of objects in closed windows are dropped, since none
// of their records may follow.
//
// Source identity is global across chunks: every chunk's dataset interns
// the sources seen so far in a stable order, so the Processor's
// per-source state lines up chunk after chunk even as new sources join
// mid-stream.
type TSVStream struct {
	sc     *bufio.Scanner
	window int
	lineno int

	// reg interns the sources and properties seen so far, in order;
	// every chunk starts from its Schema. It holds no rows.
	reg       *data.Builder
	objTS     map[string]int // objects of open and later windows
	seenMaxTS int
	started   bool
	winStart  int

	// pending holds the first record of the next window.
	pending *streamRec
	eof     bool
}

type streamRec struct {
	obj  string
	prop int
	src  int
	val  string // raw value text, parsed per property type at build time
	ts   int
}

// NewTSVStream wraps r. window is the number of consecutive timestamps
// per chunk.
func NewTSVStream(r io.Reader, window int) (*TSVStream, error) {
	if window <= 0 {
		return nil, fmt.Errorf("stream: window must be positive")
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &TSVStream{
		sc:     sc,
		window: window,
		reg:    data.NewBuilder(),
		objTS:  make(map[string]int),
	}, nil
}

// NumSources returns the number of distinct sources seen so far.
func (t *TSVStream) NumSources() int { return t.reg.NumSources() }

// Next returns the next window's chunk, or io.EOF when the stream ends.
// Ground-truth (T) records are ignored — a live stream has none.
func (t *TSVStream) Next() (Chunk, error) {
	if t.eof && t.pending == nil {
		return Chunk{}, io.EOF
	}
	var recs []*streamRec
	winStart := t.winStart

	take := func(r *streamRec) bool {
		if !t.started {
			t.started = true
			winStart = (r.ts / t.window) * t.window
			t.winStart = winStart
		}
		if r.ts >= t.winStart+t.window {
			// Start of the next window: the windows before it are
			// closed, so their objects' timestamps go.
			t.pending = r
			t.winStart = (r.ts / t.window) * t.window
			for obj, ts := range t.objTS {
				if ts < t.winStart {
					delete(t.objTS, obj)
				}
			}
			return false
		}
		recs = append(recs, r)
		return true
	}

	if t.pending != nil {
		r := t.pending
		t.pending = nil
		if !t.started {
			t.started = true
		}
		winStart = (r.ts / t.window) * t.window
		t.winStart = winStart
		recs = append(recs, r)
	}

	for t.sc.Scan() {
		t.lineno++
		line := t.sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		fail := func(msg string) error { return fmt.Errorf("stream: line %d: %s", t.lineno, msg) }
		switch f[0] {
		case "P":
			if len(f) != 3 {
				return Chunk{}, fail("P record needs 2 fields")
			}
			var typ data.Type
			switch f[2] {
			case "continuous":
				typ = data.Continuous
			case "categorical":
				typ = data.Categorical
			default:
				return Chunk{}, fail("unknown property type " + f[2])
			}
			if _, err := t.reg.Property(f[1], typ); err != nil {
				return Chunk{}, fail(err.Error())
			}
		case "O":
			if len(f) != 3 {
				return Chunk{}, fail("O record needs 2 fields")
			}
			ts, err := strconv.Atoi(f[2])
			if err != nil {
				return Chunk{}, fail("bad timestamp: " + err.Error())
			}
			if ts < t.seenMaxTS-0 && ts < t.winStart {
				return Chunk{}, fail(fmt.Sprintf("timestamp %d out of order (window starts at %d)", ts, t.winStart))
			}
			if ts > t.seenMaxTS {
				t.seenMaxTS = ts
			}
			t.objTS[f[1]] = ts
		case "V":
			if len(f) != 5 {
				return Chunk{}, fail("V record needs 4 fields")
			}
			pid, ok := t.reg.PropertyIndex(f[2])
			if !ok {
				return Chunk{}, fail("property " + f[2] + " not declared")
			}
			ts, ok := t.objTS[f[1]]
			if !ok {
				return Chunk{}, fail("object " + f[1] + " has no O (timestamp) record in an open window")
			}
			if t.reg.Prop(pid).Type == data.Continuous {
				x, err := strconv.ParseFloat(f[4], 64)
				if err != nil {
					return Chunk{}, fail("bad continuous value: " + err.Error())
				}
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return Chunk{}, fail("non-finite continuous value " + f[4])
				}
			}
			if !take(&streamRec{obj: f[1], prop: pid, src: t.reg.Source(f[3]), val: f[4], ts: ts}) {
				return t.buildChunk(recs, winStart)
			}
		case "T":
			// Live streams carry no ground truth; tolerate and skip.
			continue
		default:
			return Chunk{}, fail("unknown record type " + f[0])
		}
	}
	if err := t.sc.Err(); err != nil {
		return Chunk{}, err
	}
	t.eof = true
	if len(recs) == 0 {
		return Chunk{}, io.EOF
	}
	return t.buildChunk(recs, winStart)
}

// buildChunk materializes one window. It starts from the registry's
// Schema, so source and property indices stay aligned across chunks.
func (t *TSVStream) buildChunk(recs []*streamRec, winStart int) (Chunk, error) {
	b := t.reg.Schema()
	for _, r := range recs {
		obj := b.Object(r.obj)
		b.SetTimestampIdx(obj, r.ts)
		var v data.Value
		if b.Prop(r.prop).Type == data.Continuous {
			x, _ := strconv.ParseFloat(r.val, 64) // validated at read time
			v = data.Float(x)
		} else {
			v = data.Cat(b.CatValue(r.prop, r.val))
		}
		b.ObserveIdx(r.src, obj, r.prop, v)
	}
	return Chunk{Timestamp: winStart, Data: b.Build()}, nil
}

// SourceName returns the name of the kth source seen so far.
func (t *TSVStream) SourceName(k int) string { return t.reg.SourceName(k) }
