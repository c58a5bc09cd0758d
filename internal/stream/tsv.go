package stream

import (
	"fmt"
	"io"

	"github.com/crhkit/crh/internal/data"
)

// TSVStream incrementally reads the library's TSV observation format and
// yields one dataset chunk per timestamp window, without ever
// materializing the full stream — the "never-ending streaming data"
// scenario I-CRH exists for (Section 2.6).
//
// It reads records with data.TSVReader, the reader behind data.Decode,
// so the grammar, its checks and its errors ("data: line N: ...") are
// the batch codec's. P records may appear at any point (new properties
// can join the stream); T records are checked and skipped, as a live
// stream has no ground truth. On top of the reader the stream keeps
// three contracts, failing with "stream: line N: ..." when one breaks:
//
//   - Every object's O record (carrying its timestamp) precedes the
//     object's V records.
//   - Timestamps are non-decreasing: once a record of window w+1 appears,
//     no record of window w may follow. This is the natural order a
//     crawler produces. O records may run ahead of their windows (a file
//     written by data.Encode lists them all first).
//   - Memory stays bounded on a never-ending stream: when a window
//     opens, the timestamps of objects in earlier windows are dropped,
//     since none of their records may follow. A V record of such an
//     object fails as one with no O record.
//
// Source identity is global across chunks: every chunk's dataset interns
// the sources seen so far in a stable order, so the Processor's
// per-source state lines up chunk after chunk even as new sources join
// mid-stream.
type TSVStream struct {
	rd     *data.TSVReader
	window int

	// reg holds the properties the reader declared and the sources
	// seen so far, in order; every chunk starts from its Schema. It
	// holds no rows.
	reg   *data.Builder
	objTS map[string]int // objects of open and later windows

	// open holds the V records of the window starting at winStart,
	// none before the first V record and at the end of the stream.
	open     []streamRec
	winStart int
}

// streamRec is a V record with its source's index in reg and its
// object's timestamp.
type streamRec struct {
	data.TSVRecord
	src, ts int
}

// NewTSVStream wraps r. window is the number of consecutive timestamps
// per chunk.
func NewTSVStream(r io.Reader, window int) (*TSVStream, error) {
	if window <= 0 {
		return nil, fmt.Errorf("stream: window must be positive")
	}
	reg := data.NewBuilder()
	return &TSVStream{rd: data.NewTSVReader(r, reg), window: window, reg: reg, objTS: make(map[string]int)}, nil
}

// NumSources returns the number of distinct sources seen so far.
func (t *TSVStream) NumSources() int { return t.reg.NumSources() }

// Next returns the next window's chunk, or io.EOF when the stream ends.
func (t *TSVStream) Next() (Chunk, error) {
	for {
		rec, err := t.rd.Next()
		if err == io.EOF && len(t.open) > 0 {
			return t.close(), nil
		}
		if err != nil {
			return Chunk{}, err
		}
		switch rec.Kind {
		case 'O':
			if rec.TS < t.winStart {
				return Chunk{}, fmt.Errorf("stream: line %d: timestamp %d out of order (window starts at %d)", rec.Line, rec.TS, t.winStart)
			}
			t.objTS[rec.Object] = rec.TS
		case 'V':
			ts, ok := t.objTS[rec.Object]
			if !ok {
				return Chunk{}, fmt.Errorf("stream: line %d: object %s has no O (timestamp) record in an open window", rec.Line, rec.Object)
			}
			// The source joins the registry before a closing window's
			// chunk is built, so that chunk already numbers it.
			r := streamRec{rec, t.reg.Source(rec.Source), ts}
			var ch Chunk
			if len(t.open) > 0 && ts >= t.winStart+t.window {
				ch = t.close()
			}
			if len(t.open) == 0 {
				t.winStart = ts / t.window * t.window
				for obj, ots := range t.objTS {
					if ots < t.winStart {
						delete(t.objTS, obj)
					}
				}
			}
			t.open = append(t.open, r)
			if ch.Data != nil {
				return ch, nil
			}
		}
	}
}

// close builds the open window's chunk and empties the window. The
// chunk starts from the registry's Schema, so source and property
// indices stay aligned across chunks.
func (t *TSVStream) close() Chunk {
	b := t.reg.Schema()
	for i := range t.open {
		r := &t.open[i]
		obj := b.Object(r.Object)
		b.SetTimestampIdx(obj, r.ts)
		b.ObserveIdx(r.src, obj, r.Prop, r.Value(b))
	}
	t.open = nil
	return Chunk{Timestamp: t.winStart, Data: b.Build()}
}

// SourceName returns the name of the kth source seen so far.
func (t *TSVStream) SourceName(k int) string { return t.reg.SourceName(k) }
