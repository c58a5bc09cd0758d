package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Encode writes d (and the optional partial ground truth gt, which may be
// nil) to w in the TSV format TSVReader reads. It fails before writing anything
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
// table (nil when the input contains no T records). It reads the records
// with a TSVReader, interning names in line order.
func Decode(r io.Reader) (*Dataset, *Table, error) {
	b := NewBuilder()
	rd := NewTSVReader(r, b)
	type truthRow struct {
		obj, prop int
		val       Value
	}
	var truths []truthRow
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		switch rec.Kind {
		case 'O':
			b.SetTimestamp(rec.Object, rec.TS)
		case 'V':
			b.ObserveIdx(b.Source(rec.Source), b.Object(rec.Object), rec.Prop, rec.Value(b))
		case 'T':
			truths = append(truths, truthRow{b.Object(rec.Object), rec.Prop, rec.Value(b)})
		}
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
