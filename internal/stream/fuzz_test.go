package stream

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"github.com/crhkit/crh/internal/data"
)

// FuzzTSVStream holds the live stream to data.Decode's grammar and to
// its own contracts. On any input, at a window of 1 to 3 timestamps
// taken from the input, the stream must not panic; every chunk must
// validate, hold only objects of its window, and number the sources
// seen so far as the stream does; and source names only grow by
// appending. Where Decode fails at line N, the stream fails with
// Decode's exact error or with a "stream:" contract error at a line up
// to N; where Decode succeeds, the stream can fail only on a contract.
func FuzzTSVStream(f *testing.F) {
	for _, s := range []string{
		tsvStream,
		"P\tx\tcontinuous\nO\ta\t0\nV\ta\tx\ts1\t1\nT\tbroken\n",
		"P\tx\tcontinuous\nO\ta\t0\nO\tb\t3\nV\tb\tx\ts1\t1\nV\ta\tx\ts1\t2\n",
		"P\tx\tcontinuous\nO\ta\t0\nV\ta\tx\ts1\t1\nO\tb\t1\nV\tb\tx\ts1\t2\nV\ta\tx\ts2\t3\n",
	} {
		f.Add(uint8(0), []byte(s))
	}
	f.Fuzz(func(t *testing.T, w uint8, in []byte) {
		window := 1 + int(w%3)
		_, _, decErr := data.Decode(bytes.NewReader(in))
		ts, err := NewTSVStream(bytes.NewReader(in), window)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		last := -1
		for {
			var ch Chunk
			if ch, err = ts.Next(); err != nil {
				break
			}
			if err := ch.Data.Validate(); err != nil {
				t.Fatalf("chunk %d invalid: %v", ch.Timestamp, err)
			}
			if ch.Timestamp <= last || ch.Data.NumObjects() == 0 {
				t.Fatalf("chunk %d of %d objects after chunk %d", ch.Timestamp, ch.Data.NumObjects(), last)
			}
			last = ch.Timestamp
			for i := 0; i < ch.Data.NumObjects(); i++ {
				if o := ch.Data.Timestamp(i); o < ch.Timestamp || o >= ch.Timestamp+window {
					t.Fatalf("chunk %d holds object %q of timestamp %d", ch.Timestamp, ch.Data.ObjectName(i), o)
				}
			}
			if ts.NumSources() < len(names) || ch.Data.NumSources() != ts.NumSources() {
				t.Fatalf("chunk %d numbers %d sources, the stream %d, after %d", ch.Timestamp, ch.Data.NumSources(), ts.NumSources(), len(names))
			}
			for k := 0; k < ts.NumSources(); k++ {
				if k < len(names) && ts.SourceName(k) != names[k] || ch.Data.SourceName(k) != ts.SourceName(k) {
					t.Fatalf("source %d renamed", k)
				}
			}
			for k := len(names); k < ts.NumSources(); k++ {
				names = append(names, ts.SourceName(k))
			}
		}
		switch {
		case err == io.EOF:
			if decErr != nil {
				t.Fatalf("Decode fails (%v), the stream does not", decErr)
			}
		case decErr != nil && err.Error() == decErr.Error():
		default:
			// Only a contract may fail here, and not past Decode's line.
			m, ok := lineOf(err, "stream:")
			if n, lined := lineOf(decErr, "data:"); !ok || lined && m > n {
				t.Fatalf("Decode fails with %v, the stream with %v", decErr, err)
			}
		}
	})
}

// lineOf returns the line number an error "<prefix> line N: ..." names.
func lineOf(err error, prefix string) (n int, ok bool) {
	if err == nil {
		return 0, false
	}
	_, scanErr := fmt.Sscanf(err.Error(), prefix+" line %d:", &n)
	return n, scanErr == nil
}
