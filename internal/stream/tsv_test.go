package stream

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/synth"
)

const tsvStream = `# live crawl
P	temp	continuous
P	cond	categorical
O	d0/a	0
V	d0/a	temp	s1	10
V	d0/a	temp	s2	30
V	d0/a	cond	s1	x
O	d0/b	0
V	d0/b	temp	s1	20
O	d1/a	1
V	d1/a	temp	s1	11
V	d1/a	temp	s3	12
O	d2/a	2
V	d2/a	cond	s2	y
`

func TestTSVStreamWindows(t *testing.T) {
	ts, err := NewTSVStream(strings.NewReader(tsvStream), 1)
	if err != nil {
		t.Fatal(err)
	}
	var chunks []Chunk
	for {
		ch, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, ch)
	}
	if len(chunks) != 3 {
		t.Fatalf("%d chunks, want 3", len(chunks))
	}
	if chunks[0].Timestamp != 0 || chunks[1].Timestamp != 1 || chunks[2].Timestamp != 2 {
		t.Fatalf("timestamps %d %d %d", chunks[0].Timestamp, chunks[1].Timestamp, chunks[2].Timestamp)
	}
	// Chunk 0: two objects, 4 observations.
	if chunks[0].Data.NumObjects() != 2 || chunks[0].Data.NumObservations() != 4 {
		t.Fatalf("chunk0: %d objects %d obs", chunks[0].Data.NumObjects(), chunks[0].Data.NumObservations())
	}
	// Source identity is global: s1 is index 0 in every chunk; chunk 1
	// interns s3, so chunk 2 must carry it too.
	if chunks[0].Data.SourceName(0) != "s1" || chunks[1].Data.SourceName(0) != "s1" {
		t.Fatal("source order not stable")
	}
	if chunks[1].Data.NumSources() != 3 {
		t.Fatalf("chunk1 sources = %d, want 3 (s3 joined)", chunks[1].Data.NumSources())
	}
	if chunks[2].Data.NumSources() != 3 {
		t.Fatalf("chunk2 sources = %d, want all known sources", chunks[2].Data.NumSources())
	}
	if ts.NumSources() != 3 {
		t.Fatal("stream source registry")
	}
}

func TestTSVStreamDrivesProcessor(t *testing.T) {
	ts, err := NewTSVStream(strings.NewReader(tsvStream), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcessor(0, Config{}) // sources join as they appear
	var resolved int
	for {
		ch, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		truths := p.Process(ch.Data)
		resolved += truths.Count()
	}
	if resolved != 5 {
		t.Fatalf("resolved %d entries, want 5", resolved)
	}
	if len(p.Weights()) != 3 {
		t.Fatalf("processor grew to %d sources, want 3", len(p.Weights()))
	}
	for _, w := range p.Weights() {
		if math.IsNaN(w) || w < 0 {
			t.Fatalf("weight %v", w)
		}
	}
}

// TestTSVStreamMatchesBatchChunking: streaming a serialized dataset must
// produce the same per-chunk observation counts as materializing it and
// using ChunksByWindow.
func TestTSVStreamMatchesBatchChunking(t *testing.T) {
	d, _ := synth.Weather(synth.WeatherConfig{Seed: 77, Cities: 4, Days: 6})
	var buf bytes.Buffer
	if err := data.Encode(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	// The codec emits records in object (hence timestamp-mixed) order;
	// re-encode sorted by timestamp: Slice per day and concatenate.
	var sorted bytes.Buffer
	for day := 0; day < 6; day++ {
		chunk := d.Slice(func(i int) bool { return d.Timestamp(i) == day })
		if err := data.Encode(&sorted, chunk, nil); err != nil {
			t.Fatal(err)
		}
	}

	ts, err := NewTSVStream(&sorted, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ChunksByWindow(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for {
		ch, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ch.Data.NumObservations())
	}
	if len(got) != len(batch) {
		t.Fatalf("stream produced %d chunks, batch %d", len(got), len(batch))
	}
	for i := range got {
		if got[i] != batch[i].Data.NumObservations() {
			t.Fatalf("chunk %d: stream %d obs, batch %d", i, got[i], batch[i].Data.NumObservations())
		}
	}
}

// TestTSVStreamRejectsClosedWindowRecord: once window 1 has opened, a
// V record of an object timestamped in window 0 breaks the order
// contract. It fails with its line number instead of joining window 1's
// chunk under its stale timestamp.
func TestTSVStreamRejectsClosedWindowRecord(t *testing.T) {
	in := "P\tx\tcontinuous\nO\ta\t0\nV\ta\tx\ts1\t1\nO\tb\t1\nV\tb\tx\ts1\t2\nV\ta\tx\ts2\t3\n"
	ts, err := NewTSVStream(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := ts.Next(); err != nil || ch.Timestamp != 0 {
		t.Fatalf("window 0: timestamp %d, err %v", ch.Timestamp, err)
	}
	ch, err := ts.Next()
	if err == nil || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("window 1: %d objects, err %v; want the line 6 record rejected", ch.Data.NumObjects(), err)
	}
}

// TestTSVStreamForgetsClosedWindows pins the live stream's memory
// bound: over 2,000 one-object windows, the stream never holds more
// than two objects' timestamps, as each closed window's go with it.
func TestTSVStreamForgetsClosedWindows(t *testing.T) {
	const windows = 2000
	var b strings.Builder
	b.WriteString("P\tx\tcontinuous\n")
	for i := 0; i < windows; i++ {
		fmt.Fprintf(&b, "O\to%d\t%d\nV\to%d\tx\ts1\t%d\n", i, i, i, i)
	}
	ts, err := NewTSVStream(strings.NewReader(b.String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	chunks, held := 0, 0
	for {
		ch, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		if ch.Data.NumObjects() != 1 {
			t.Fatalf("chunk %d holds %d objects, want 1", chunks, ch.Data.NumObjects())
		}
		chunks++
		held = max(held, len(ts.objTS))
	}
	if chunks != windows || held > 2 {
		t.Fatalf("%d chunks holding up to %d objects' timestamps; want %d chunks, at most 2", chunks, held, windows)
	}
}

func TestTSVStreamErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"V before O", "P\tp\tcontinuous\nV\to\tp\ts\t1\n"},
		{"undeclared property", "O\to\t0\nV\to\tp\ts\t1\n"},
		{"bad type", "P\tp\tblob\n"},
		{"bad value", "P\tp\tcontinuous\nO\to\t0\nV\to\tp\ts\tabc\n"},
		{"NaN value", "P\tp\tcontinuous\nO\to\t0\nV\to\tp\ts\tNaN\n"},
		{"bad timestamp", "O\to\tzzz\n"},
		{"unknown record", "Q\tx\n"},
		{"redeclared type", "P\tp\tcontinuous\nP\tp\tcategorical\n"},
	}
	for _, c := range cases {
		ts, err := NewTSVStream(strings.NewReader(c.in), 1)
		if err != nil {
			t.Fatalf("%s: constructor: %v", c.name, err)
		}
		for {
			_, err = ts.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("%s: expected parse error, got EOF", c.name)
		}
	}
	if _, err := NewTSVStream(strings.NewReader(""), 0); err == nil {
		t.Error("zero window accepted")
	}
	// Empty stream: immediate EOF.
	ts, _ := NewTSVStream(strings.NewReader("# nothing\n"), 1)
	if _, err := ts.Next(); err != io.EOF {
		t.Errorf("empty stream: %v", err)
	}
}
