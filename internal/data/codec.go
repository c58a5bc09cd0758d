package data

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The TSV codec serializes datasets (and optional ground truths) in a
// line-oriented, diff-friendly format:
//
//	# comments and blank lines are ignored
//	P\tname\tcontinuous|categorical     property declaration, order = index
//	O\tobject\ttimestamp                optional timestamp declaration
//	V\tobject\tproperty\tsource\tvalue  one observation
//	T\tobject\tproperty\tvalue          one ground-truth value
//
// Continuous values use strconv float syntax; categorical values are the
// raw strings. Properties must be declared before use so the decoder knows
// how to parse values.

// Encode writes d (and the optional partial ground truth gt, which may be
// nil) to w in the TSV format above. It fails before writing anything
// when a name of d holds a tab or a newline, which the format cannot
// carry.
func Encode(w io.Writer, d *Dataset, gt *Table) error {
	if err := checkNames(d); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# crh dataset: %d sources, %d objects, %d properties, %d observations\n",
		d.NumSources(), d.NumObjects(), d.NumProps(), d.NumObservations())
	for m := 0; m < d.NumProps(); m++ {
		p := d.Prop(m)
		fmt.Fprintf(bw, "P\t%s\t%s\n", p.Name, p.Type)
	}
	if d.HasTimestamps() {
		for i := 0; i < d.NumObjects(); i++ {
			fmt.Fprintf(bw, "O\t%s\t%d\n", d.ObjectName(i), d.Timestamp(i))
		}
	}
	var err error
	format := func(m int, v Value) string {
		if d.Prop(m).Type == Categorical {
			return d.Prop(m).CatName(int(v.C))
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	}
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			e := d.Entry(i, m)
			d.ForEntry(e, func(k int, v Value) {
				if err != nil {
					return
				}
				_, err = fmt.Fprintf(bw, "V\t%s\t%s\t%s\t%s\n",
					d.ObjectName(i), d.Prop(m).Name, d.SourceName(k), format(m, v))
			})
			if gt != nil {
				if v, ok := gt.Get(e); ok {
					fmt.Fprintf(bw, "T\t%s\t%s\t%s\n", d.ObjectName(i), d.Prop(m).Name, format(m, v))
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// checkNames returns an error naming the first object, source, property
// or category of d that holds a tab or a newline.
func checkNames(d *Dataset) error {
	var err error
	check := func(kind, name string) {
		if err == nil && strings.ContainsAny(name, "\t\n") {
			err = fmt.Errorf("data: %s %q holds a tab or a newline", kind, name)
		}
	}
	for _, o := range d.objects {
		check("object", o)
	}
	for _, s := range d.sources {
		check("source", s)
	}
	for _, p := range d.props {
		check("property", p.Name)
		for _, c := range p.cats {
			check("category", c)
		}
	}
	return err
}

// Decode parses the TSV format, returning the dataset and the ground-truth
// table (nil when the input contains no T records).
func Decode(r io.Reader) (*Dataset, *Table, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	type truthRow struct {
		obj, prop int
		val       Value
	}
	var truths []truthRow

	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		fail := func(msg string) error { return fmt.Errorf("data: line %d: %s", lineno, msg) }
		switch f[0] {
		case "P":
			if len(f) != 3 {
				return nil, nil, fail("P record needs 2 fields")
			}
			var t Type
			switch f[2] {
			case "continuous":
				t = Continuous
			case "categorical":
				t = Categorical
			default:
				return nil, nil, fail("unknown property type " + f[2])
			}
			if _, err := b.Property(f[1], t); err != nil {
				return nil, nil, fail(err.Error())
			}
		case "O":
			if len(f) != 3 {
				return nil, nil, fail("O record needs 2 fields")
			}
			ts, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, nil, fail("bad timestamp: " + err.Error())
			}
			b.SetTimestamp(f[1], ts)
		case "V", "T":
			isTruth := f[0] == "T"
			want := 5
			if isTruth {
				want = 4
			}
			if len(f) != want {
				return nil, nil, fail(f[0] + " record has wrong field count")
			}
			pid, ok := b.propByID[f[2]]
			if !ok {
				return nil, nil, fail("property " + f[2] + " not declared")
			}
			raw := f[len(f)-1]
			var v Value
			if b.props[pid].Type == Continuous {
				x, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, nil, fail("bad continuous value: " + err.Error())
				}
				if math.IsNaN(x) || math.IsInf(x, 0) {
					// Mirror Builder.ObserveFloat: non-finite values
					// would poison every weighted aggregate.
					return nil, nil, fail("non-finite continuous value " + raw)
				}
				v = Float(x)
			} else {
				v = Cat(b.CatValue(pid, raw))
			}
			if isTruth {
				truths = append(truths, truthRow{b.Object(f[1]), pid, v})
			} else {
				b.ObserveIdx(b.Source(f[3]), b.Object(f[1]), pid, v)
			}
		default:
			return nil, nil, fail("unknown record type " + f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	d := b.Build()
	var gt *Table
	if len(truths) > 0 {
		gt = NewTableFor(d)
		for _, t := range truths {
			gt.SetAt(t.obj, t.prop, t.val)
		}
	}
	return d, gt, nil
}
