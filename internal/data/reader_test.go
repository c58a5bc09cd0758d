package data

import (
	"bufio"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestTSVReader: the reader returns O, V and T records with their line
// numbers, property indices and parsed values, declares P records in
// its Builder, and interns no object, source or category.
func TestTSVReader(t *testing.T) {
	in := "# comment\nP\tx\tcontinuous\n\nP\tc\tcategorical\nO\ta\t7\nV\ta\tx\ts\t-2.5\nV\ta\tc\ts\tred\nT\ta\tc\tblue\nT\ta\tx\t0x1p-2\n"
	b := NewBuilder()
	rd := NewTSVReader(strings.NewReader(in), b)
	var got []TSVRecord
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	want := []TSVRecord{
		{Line: 5, Kind: 'O', Object: "a", TS: 7},
		{Line: 6, Kind: 'V', Object: "a", Source: "s", Prop: 0, Num: -2.5},
		{Line: 7, Kind: 'V', Object: "a", Source: "s", Prop: 1, Cat: "red"},
		{Line: 8, Kind: 'T', Object: "a", Prop: 1, Cat: "blue"},
		{Line: 9, Kind: 'T', Object: "a", Prop: 0, Num: 0.25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records\n%+v\nwant\n%+v", got, want)
	}
	if b.NumProps() != 2 || b.Prop(1).Type != Categorical || b.Prop(1).NumCats() != 0 || b.NumObjects() != 0 || b.NumSources() != 0 {
		t.Fatalf("builder holds %d properties, %d categories, %d objects, %d sources; want 2, 0, 0, 0",
			b.NumProps(), b.Prop(1).NumCats(), b.NumObjects(), b.NumSources())
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the end: %v, want io.EOF", err)
	}
	if v := got[2].Value(b); v.C != 0 || b.Prop(1).CatName(0) != "red" {
		t.Fatalf("Value interned %q as %d", b.Prop(1).CatName(int(v.C)), v.C)
	}
}

// TestTSVReaderFieldCounts: a record with a field too few or too many,
// a trailing tab included, fails with its kind's message at its line.
func TestTSVReaderFieldCounts(t *testing.T) {
	cases := []struct{ line, want string }{
		{"P\tp", "P record needs 2 fields"},
		{"P\tp\tcontinuous\t", "P record needs 2 fields"},
		{"O\to", "O record needs 2 fields"},
		{"O\to\t1\t2", "O record needs 2 fields"},
		{"V\to\tx\ts", "V record has wrong field count"},
		{"V\to\tx\ts\t1\t", "V record has wrong field count"},
		{"V\to\tx\ts\t1\t2\t3", "V record has wrong field count"},
		{"T\to\tx", "T record has wrong field count"},
		{"T\to\tx\t1\t", "T record has wrong field count"},
		{"\tP\tx\tcontinuous", "unknown record type "},
	}
	for _, c := range cases {
		in := "P\tx\tcontinuous\n# the record\n" + c.line + "\n"
		_, err := NewTSVReader(strings.NewReader(in), NewBuilder()).Next()
		if want := "data: line 3: " + c.want; err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", c.line, err, want)
		}
	}
}

// TestTSVReaderLineTooLong: a line beyond the reader's 4 MiB limit
// fails at its line number, naming the limit, and the error still
// wraps bufio.ErrTooLong; Decode reports the same error.
func TestTSVReaderLineTooLong(t *testing.T) {
	in := "P\tc\tcategorical\n# comment\nV\to\tc\ts\tx\nV\t" + strings.Repeat("o", 5<<20) + "\tc\ts\tx\n"
	const want = "data: line 4: line longer than the 4 MiB limit"
	rd := NewTSVReader(strings.NewReader(in), NewBuilder())
	if rec, err := rd.Next(); err != nil || rec.Line != 3 {
		t.Fatalf("first record: %+v, %v; want line 3", rec, err)
	}
	_, err := rd.Next()
	if err == nil || err.Error() != want {
		t.Fatalf("over-long line: %v, want %q", err, want)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("%v does not wrap bufio.ErrTooLong", err)
	}
	if _, _, err := Decode(strings.NewReader(in)); err == nil || err.Error() != want || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Decode: %v, want %q wrapping bufio.ErrTooLong", err, want)
	}
}
