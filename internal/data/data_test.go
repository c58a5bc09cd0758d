package data

import (
	"bytes"
	"strings"
	"testing"
)

// buildSample constructs a small mixed-type dataset:
// 2 sources, 2 objects, 2 properties (temp continuous, cond categorical),
// with one missing observation.
func buildSample(t *testing.T) *Dataset {
	t.Helper()
	b := NewBuilder()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.ObserveFloat("s1", "nyc", "temp", 80))
	must(b.ObserveFloat("s2", "nyc", "temp", 82))
	must(b.ObserveCat("s1", "nyc", "cond", "sunny"))
	must(b.ObserveCat("s2", "nyc", "cond", "rain"))
	must(b.ObserveFloat("s1", "sfo", "temp", 65))
	must(b.ObserveCat("s1", "sfo", "cond", "fog"))
	// s2 does not observe sfo at all: missing values.
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	d := buildSample(t)
	if d.NumSources() != 2 || d.NumObjects() != 2 || d.NumProps() != 2 {
		t.Fatalf("dims = %d sources, %d objects, %d props", d.NumSources(), d.NumObjects(), d.NumProps())
	}
	if d.NumEntries() != 4 {
		t.Fatalf("NumEntries = %d, want 4", d.NumEntries())
	}
	if d.NumObservations() != 6 {
		t.Fatalf("NumObservations = %d, want 6", d.NumObservations())
	}
	if d.ObservationCount(0) != 4 || d.ObservationCount(1) != 2 {
		t.Fatalf("counts = %d,%d", d.ObservationCount(0), d.ObservationCount(1))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestSchema: Schema keeps b's sources and properties, in order and
// with their types, and nothing else; interning into it leaves b
// unchanged.
func TestSchema(t *testing.T) {
	b := NewBuilder()
	if err := b.ObserveCat("s2", "o1", "cond", "rain"); err != nil {
		t.Fatal(err)
	}
	if err := b.ObserveFloat("s1", "o1", "temp", 3); err != nil {
		t.Fatal(err)
	}
	b.SetTimestamp("o2", 4)
	c := b.Schema()
	if c.NumSources() != 2 || c.SourceName(0) != "s2" || c.SourceName(1) != "s1" {
		t.Errorf("schema sources %d, want s2, s1", c.NumSources())
	}
	if c.NumProps() != 2 || c.Prop(0).Name != "cond" || c.Prop(0).Type != Categorical ||
		c.Prop(1).Name != "temp" || c.Prop(1).Type != Continuous {
		t.Errorf("schema properties %d, want cond (categorical), temp (continuous)", c.NumProps())
	}
	if c.NumObjects() != 0 || c.NumRows() != 0 || c.Prop(0).NumCats() != 0 || c.Build().HasTimestamps() {
		t.Errorf("schema holds %d objects, %d rows, %d categories or timestamps; want none",
			c.NumObjects(), c.NumRows(), c.Prop(0).NumCats())
	}
	if err := c.ObserveCat("s3", "o3", "cond", "snow"); err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveFloat("s1", "o4", "wind", 2); err != nil {
		t.Fatal(err)
	}
	c.SetTimestamp("o4", 9)
	if b.NumSources() != 2 || b.NumObjects() != 2 || b.NumProps() != 2 || b.NumRows() != 2 || b.Prop(0).NumCats() != 1 {
		t.Errorf("interning into the schema changed its source: %d sources, %d objects, %d properties, %d rows, %d categories",
			b.NumSources(), b.NumObjects(), b.NumProps(), b.NumRows(), b.Prop(0).NumCats())
	}
}

func TestTypedAccess(t *testing.T) {
	d := buildSample(t)
	if d.Prop(0).Name != "temp" || d.Prop(0).Type != Continuous {
		t.Fatalf("prop 0 = %+v", d.Prop(0))
	}
	if d.Prop(1).Name != "cond" || d.Prop(1).Type != Categorical {
		t.Fatalf("prop 1 = %+v", d.Prop(1))
	}
	if !d.Has(0, 0, 0) || d.Get(0, 0, 0).F != 80 {
		t.Error("s1 nyc temp should be 80")
	}
	if d.Has(1, 1, 0) {
		t.Error("s2 sfo temp should be missing")
	}
	p := d.Prop(1)
	if p.NumCats() != 3 {
		t.Fatalf("cond cats = %d, want 3", p.NumCats())
	}
	id, ok := p.CatID("rain")
	if !ok || p.CatName(id) != "rain" {
		t.Error("categorical dictionary round-trip failed")
	}
	if _, ok := p.CatID("hail"); ok {
		t.Error("unknown category should not resolve")
	}
}

func TestPropertyTypeConflict(t *testing.T) {
	b := NewBuilder()
	if err := b.ObserveFloat("s", "o", "p", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.ObserveCat("s", "o", "p", "x"); err == nil {
		t.Fatal("expected type-conflict error")
	}
}

func TestDuplicateObservationKeepsLast(t *testing.T) {
	b := NewBuilder()
	b.ObserveFloat("s", "o", "p", 1)
	b.ObserveFloat("s", "o", "p", 2)
	d := b.Build()
	if d.NumObservations() != 1 {
		t.Fatalf("NumObservations = %d, want 1 (dedup)", d.NumObservations())
	}
	if got := d.Get(0, 0, 0).F; got != 2 {
		t.Fatalf("duplicate kept %v, want last value 2", got)
	}
}

// TestBuildCopiesCategoryDictionaries: a built Dataset owns its
// category dictionaries, so categories the Builder interns afterwards
// reach only later Builds. Shared dictionaries let a Dataset answer
// CatID with a code at or beyond its own NumCats.
func TestBuildCopiesCategoryDictionaries(t *testing.T) {
	b := NewBuilder()
	if err := b.ObserveCat("s1", "o1", "cond", "sunny"); err != nil {
		t.Fatal(err)
	}
	d := b.Build()
	b.CatValue(0, "hail")
	if err := b.ObserveCat("s2", "o1", "cond", "rain"); err != nil {
		t.Fatal(err)
	}
	p := d.Prop(0)
	if p.NumCats() != 1 {
		t.Fatalf("built dataset has %d categories, want 1", p.NumCats())
	}
	for _, c := range []string{"hail", "rain"} {
		if id, ok := p.CatID(c); ok {
			t.Fatalf("built dataset resolves %q, interned after Build, to code %d (NumCats %d)", c, id, p.NumCats())
		}
	}
	if id, ok := p.CatID("sunny"); !ok || id != 0 || p.CatName(0) != "sunny" {
		t.Fatalf("CatID(sunny) = %d, %v", id, ok)
	}
	if n := b.Build().Prop(0).NumCats(); n != 3 {
		t.Fatalf("later Build has %d categories, want 3", n)
	}
}

func TestForEntryAndObservers(t *testing.T) {
	d := buildSample(t)
	e := d.Entry(0, 0) // nyc temp
	var seen []int
	d.ForEntry(e, func(k int, v Value) { seen = append(seen, k) })
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("ForEntry sources = %v", seen)
	}
	if d.EntryObservers(d.Entry(1, 0)) != 1 {
		t.Error("sfo temp should have 1 observer")
	}
	if d.EntryObject(d.Entry(1, 1)) != 1 || d.EntryProp(d.Entry(1, 1)) != 1 {
		t.Error("entry index round-trip failed")
	}
}

func TestTimestampsAndSlice(t *testing.T) {
	b := NewBuilder()
	b.ObserveFloat("s1", "day1-obj", "x", 1)
	b.ObserveFloat("s1", "day2-obj", "x", 2)
	b.ObserveFloat("s2", "day2-obj", "x", 3)
	b.SetTimestamp("day1-obj", 1)
	b.SetTimestamp("day2-obj", 2)
	d := b.Build()
	if !d.HasTimestamps() {
		t.Fatal("expected timestamps")
	}
	min, max := d.TimestampRange()
	if min != 1 || max != 2 {
		t.Fatalf("TimestampRange = %d,%d", min, max)
	}
	chunk := d.Slice(func(i int) bool { return d.Timestamp(i) == 2 })
	if chunk.NumObjects() != 1 || chunk.ObjectName(0) != "day2-obj" {
		t.Fatalf("slice objects = %d", chunk.NumObjects())
	}
	if chunk.NumObservations() != 2 {
		t.Fatalf("slice observations = %d, want 2", chunk.NumObservations())
	}
	if chunk.ObservationCount(0) != 1 || chunk.ObservationCount(1) != 1 {
		t.Fatal("slice per-source counts wrong")
	}
	if err := chunk.Validate(); err != nil {
		t.Fatalf("slice Validate: %v", err)
	}
	if chunk.Timestamp(0) != 2 {
		t.Fatal("slice lost timestamp")
	}
}

func TestSliceEmpty(t *testing.T) {
	d := buildSample(t)
	empty := d.Slice(func(int) bool { return false })
	if empty.NumObjects() != 0 || empty.NumObservations() != 0 {
		t.Fatal("empty slice should have nothing")
	}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty slice Validate: %v", err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable(2, 3)
	if tb.Len() != 6 || tb.Count() != 0 {
		t.Fatal("fresh table should be empty")
	}
	tb.SetAt(1, 2, Float(9))
	if tb.Count() != 1 {
		t.Fatal("Count after one Set")
	}
	v, ok := tb.GetAt(1, 2)
	if !ok || v.F != 9 {
		t.Fatal("GetAt round-trip failed")
	}
	if _, ok := tb.GetAt(0, 0); ok {
		t.Fatal("unset entry should report absent")
	}
	cl := tb.Clone()
	cl.SetAt(0, 0, Float(1))
	if tb.Has(0) {
		t.Fatal("Clone is not independent")
	}
	var visited int
	tb.ForEach(func(e int, v Value) { visited++ })
	if visited != 1 {
		t.Fatalf("ForEach visited %d, want 1", visited)
	}
}

func TestValueEqual(t *testing.T) {
	if !Float(1.5).Equal(Float(1.5), Continuous) {
		t.Error("equal floats")
	}
	if Float(1.5).Equal(Float(2), Continuous) {
		t.Error("unequal floats")
	}
	if !Cat(3).Equal(Cat(3), Categorical) {
		t.Error("equal cats")
	}
	if Cat(3).Equal(Cat(4), Categorical) {
		t.Error("unequal cats")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.ObserveFloat("s1", "nyc", "temp", 80.5)
	b.ObserveCat("s1", "nyc", "cond", "partly cloudy")
	b.ObserveFloat("s2", "nyc", "temp", 79)
	b.ObserveCat("s2", "nyc", "cond", "rain")
	b.SetTimestamp("nyc", 17)
	d := b.Build()
	gt := NewTableFor(d)
	gt.SetAt(0, b.MustProperty("temp", Continuous), Float(80))
	gt.SetAt(0, b.MustProperty("cond", Categorical), Cat(b.CatValue(1, "rain")))

	var buf bytes.Buffer
	if err := Encode(&buf, d, gt); err != nil {
		t.Fatal(err)
	}
	d2, gt2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumSources() != 2 || d2.NumObjects() != 1 || d2.NumProps() != 2 {
		t.Fatalf("decoded dims wrong: %d/%d/%d", d2.NumSources(), d2.NumObjects(), d2.NumProps())
	}
	if d2.NumObservations() != d.NumObservations() {
		t.Fatal("observation count changed in round-trip")
	}
	if !d2.HasTimestamps() || d2.Timestamp(0) != 17 {
		t.Fatal("timestamp lost in round-trip")
	}
	if got := d2.Get(0, 0, 0).F; got != 80.5 {
		t.Fatalf("decoded s1 temp = %v", got)
	}
	p := d2.Prop(1)
	id, _ := p.CatID("partly cloudy")
	if got := int(d2.Get(0, 0, 1).C); got != id {
		t.Fatal("decoded categorical value wrong")
	}
	if gt2 == nil || gt2.Count() != 2 {
		t.Fatal("ground truth lost in round-trip")
	}
	v, _ := gt2.GetAt(0, 0)
	if v.F != 80 {
		t.Fatalf("decoded gt temp = %v", v.F)
	}
	if err := d2.Validate(); err != nil {
		t.Fatalf("decoded Validate: %v", err)
	}
}

// TestEncodeRejectsUnwritableNames: a tab or a newline in a name would
// split or end its record, so Encode fails, naming the kind and the
// name, before writing anything. A carriage return passes: Decode can
// produce a name holding one.
func TestEncodeRejectsUnwritableNames(t *testing.T) {
	for _, tc := range []struct {
		claims [][4]string // source, object, property, categorical value
		want   string      // error text; empty for a dataset that encodes
	}{
		{[][4]string{{"s1", "a\tb", "p", "x"}, {"s1", "c", "p", "y\n"}}, `object "a\tb"`},
		{[][4]string{{"s1", "c", "p", "y\n"}}, `category "y\n"`},
		{[][4]string{{"s\n1", "c", "p", "x"}}, `source "s\n1"`},
		{[][4]string{{"s1", "c", "p\tq", "x"}}, `property "p\tq"`},
		{[][4]string{{"s\r1", "c\r", "p\r", "x\ry"}}, ""},
	} {
		b := NewBuilder()
		for _, c := range tc.claims {
			if err := b.ObserveCat(c[0], c[1], c[2], c[3]); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		err := Encode(&buf, b.Build(), nil)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%q: %v", tc.claims, err)
			} else if _, _, err := Decode(&buf); err != nil {
				t.Errorf("%q: decoding the encoded dataset: %v", tc.claims, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: Encode error %v, want one naming %s", tc.claims, err, tc.want)
		}
		if buf.Len() > 0 {
			t.Errorf("%q: Encode wrote %d bytes before failing", tc.claims, buf.Len())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"unknown record", "Z\tx\n"},
		{"bad type", "P\tp\tweird\n"},
		{"undeclared property", "V\to\tp\ts\t1\n"},
		{"bad float", "P\tp\tcontinuous\nV\to\tp\ts\tabc\n"},
		{"bad timestamp", "O\tobj\txyz\n"},
		{"short V", "P\tp\tcontinuous\nV\to\tp\n"},
	}
	for _, c := range cases {
		if _, _, err := Decode(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestDecodeIgnoresCommentsAndBlanks(t *testing.T) {
	in := "# hello\n\nP\tp\tcontinuous\nV\to\tp\ts\t1.5\n"
	d, gt, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if gt != nil {
		t.Fatal("no truths expected")
	}
	if d.NumObservations() != 1 || d.Get(0, 0, 0).F != 1.5 {
		t.Fatal("decode with comments failed")
	}
}
