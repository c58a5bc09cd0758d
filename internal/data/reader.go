package data

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TSVRecord is one O, V or T record of the TSV format, as a TSVReader
// returns it. Its strings are slices of the record's line: the reader
// interns no object, source or category.
type TSVRecord struct {
	Line   int  // counting from 1
	Kind   byte // 'O', 'V' or 'T'
	Object string
	Source string // V records
	Prop   int    // V and T records: the index in the reader's Builder
	TS     int    // O records: the timestamp
	// Num is a V or T record's value when its property is continuous,
	// always finite; Cat its value, as written, when it is categorical.
	Num float64
	Cat string
}

// Value returns the record's value in b, interning a categorical value
// into b's dictionary for property Prop. b must hold Prop with the type
// the reader's Builder gave it.
func (r *TSVRecord) Value(b *Builder) Value {
	if b.props[r.Prop].Type == Categorical {
		return Cat(b.CatValue(r.Prop, r.Cat))
	}
	return Float(r.Num)
}

// TSVReader reads the TSV format one record at a time; Decode and the
// live stream both read through it. The format is line-oriented:
//
//	# comments and blank lines are ignored
//	P\tname\tcontinuous|categorical     property declaration, order = index
//	O\tobject\ttimestamp                optional timestamp declaration
//	V\tobject\tproperty\tsource\tvalue  one observation
//	T\tobject\tproperty\tvalue          one ground-truth value
//
// Continuous values use strconv float syntax; categorical values are the
// raw strings. The reader declares each P record's property in its
// Builder, so a property must be declared before its values are read.
type TSVReader struct {
	sc   *bufio.Scanner
	b    *Builder
	line int
}

// maxLine bounds a line's length: 4 MiB.
const maxLine = 1 << 22

// NewTSVReader returns a reader of r that declares properties in b.
func NewTSVReader(r io.Reader, b *Builder) *TSVReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	return &TSVReader{sc: sc, b: b}
}

// Next returns the next O, V or T record, or io.EOF after the last. A
// malformed record's error names its line, as "data: line N: ...", and
// so does a line longer than 4 MiB, whose error wraps
// bufio.ErrTooLong.
func (t *TSVReader) Next() (TSVRecord, error) {
	for t.sc.Scan() {
		t.line++
		if line := t.sc.Bytes(); len(line) > 0 && line[0] != '#' {
			// The one allocation per line: every field is a slice of it.
			if rec, err := t.parse(string(line)); err != nil || rec.Kind != 'P' {
				return rec, err
			}
		}
	}
	if err := t.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stopped inside the line after the last one
			// it returned.
			return TSVRecord{}, tooLongError{t.line + 1}
		}
		return TSVRecord{}, err
	}
	return TSVRecord{}, io.EOF
}

// tooLongError reports a line longer than maxLine; it wraps
// bufio.ErrTooLong.
type tooLongError struct{ line int }

func (e tooLongError) Error() string {
	return fmt.Sprintf("data: line %d: line longer than the %d MiB limit", e.line, maxLine>>20)
}

func (tooLongError) Unwrap() error { return bufio.ErrTooLong }

// parse checks one record against the grammar. A P record declares its
// property and comes back with Kind 'P' and nothing else.
func (t *TSVReader) parse(line string) (TSVRecord, error) {
	var f [5]string
	n := fields(line, &f)
	switch f[0] {
	case "P":
		if n != 3 {
			return TSVRecord{}, t.fail("P record needs 2 fields")
		}
		typ := Continuous
		if f[2] == "categorical" {
			typ = Categorical
		} else if f[2] != "continuous" {
			return TSVRecord{}, t.fail("unknown property type " + f[2])
		}
		if _, err := t.b.Property(f[1], typ); err != nil {
			return TSVRecord{}, t.fail(err.Error())
		}
		return TSVRecord{Kind: 'P'}, nil
	case "O":
		if n != 3 {
			return TSVRecord{}, t.fail("O record needs 2 fields")
		}
		ts, err := strconv.Atoi(f[2])
		if err != nil {
			return TSVRecord{}, t.fail("bad timestamp: " + err.Error())
		}
		return TSVRecord{Line: t.line, Kind: 'O', Object: f[1], TS: ts}, nil
	case "V", "T":
		want := 4
		if f[0] == "V" {
			want = 5
		}
		if n != want {
			return TSVRecord{}, t.fail(f[0] + " record has wrong field count")
		}
		pid, ok := t.b.propByID[f[2]]
		if !ok {
			return TSVRecord{}, t.fail("property " + f[2] + " not declared")
		}
		rec := TSVRecord{Line: t.line, Kind: f[0][0], Object: f[1], Prop: pid}
		if want == 5 {
			rec.Source = f[3]
		}
		raw := f[n-1]
		if t.b.props[pid].Type == Categorical {
			rec.Cat = raw
			return rec, nil
		}
		x, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return TSVRecord{}, t.fail("bad continuous value: " + err.Error())
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// As in Builder.ObserveFloat: it would poison every aggregate.
			return TSVRecord{}, t.fail("non-finite continuous value " + raw)
		}
		rec.Num = x
		return rec, nil
	}
	return TSVRecord{}, t.fail("unknown record type " + f[0])
}

// fields splits line at its tabs into f and returns how many fields
// line holds: len(f)+1 when more than fit.
func fields(line string, f *[5]string) int {
	n, more := 0, true
	for ; more && n < len(f); n++ {
		f[n], line, more = strings.Cut(line, "\t")
	}
	if more {
		return len(f) + 1
	}
	return n
}

func (t *TSVReader) fail(msg string) error {
	return fmt.Errorf("data: line %d: %s", t.line, msg)
}
