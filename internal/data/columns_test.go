package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Property tests for the Dataset's entry-major claim columns: Build must
// equal a map-based last-wins model of the claim log, Slice must equal a
// Build of the kept objects' rows, and Validate must accept every built
// Dataset while rejecting hand-corrupted columns.

// randomLog records a random claim log: both property types, repeated
// (source, entry) claims in shuffled source order, and sources, objects
// and properties that carry no claims.
func randomLog(seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	nProps, nObj, nSrc := 1+rng.Intn(4), 1+rng.Intn(10), 1+rng.Intn(6)
	for m := 0; m < nProps; m++ {
		if rng.Intn(2) == 0 {
			b.MustProperty(fmt.Sprintf("c%d", m), Continuous)
			continue
		}
		p := b.MustProperty(fmt.Sprintf("k%d", m), Categorical)
		for v := rng.Intn(5); v > 0; v-- {
			b.CatValue(p, fmt.Sprintf("v%d", v))
		}
	}
	for i := 0; i < nObj; i++ {
		b.Object(fmt.Sprintf("o%d", i))
		if rng.Intn(3) == 0 {
			b.SetTimestampIdx(i, rng.Intn(4))
		}
	}
	for k := 0; k < nSrc; k++ {
		b.Source(fmt.Sprintf("s%d", k))
	}
	// Claims go to a random subset of the sources, objects and
	// properties, so some of each stay silent.
	pick := func(n int) []int { return rng.Perm(n)[:1+rng.Intn(n)] }
	srcs, objs, props := pick(nSrc), pick(nObj), pick(nProps)
	for r := rng.Intn(3 * nSrc * nObj * nProps); r > 0; r-- {
		k, i, m := srcs[rng.Intn(len(srcs))], objs[rng.Intn(len(objs))], props[rng.Intn(len(props))]
		v := Float(math.Trunc(rng.NormFloat64()*1e4) / 1e2)
		if p := b.Prop(m); p.Type == Categorical {
			if p.NumCats() == 0 {
				continue
			}
			v = Cat(rng.Intn(p.NumCats()))
		}
		b.ObserveIdx(k, i, m, v)
	}
	return b
}

// lastWins builds the expected columns of b's log from a map keyed by
// (source, entry) that each later claim overwrites.
func lastWins(b *Builder) *Dataset {
	N, M, K := b.NumObjects(), b.NumProps(), b.NumSources()
	type key struct{ k, e int }
	last := make(map[key]Value)
	for r := 0; r < b.NumRows(); r++ {
		k, i, m, v := b.Row(r)
		last[key{k, i*M + m}] = v
	}
	want := &Dataset{off: make([]int32, N*M+1), voff: make([]int32, N*M), counts: make([]int, K)}
	for e := 0; e < N*M; e++ {
		cat := b.Prop(e%M).Type == Categorical
		want.off[e] = int32(len(want.src))
		want.voff[e] = int32(len(want.vf))
		if cat {
			want.voff[e] = int32(len(want.vc))
		}
		for k := 0; k < K; k++ {
			v, ok := last[key{k, e}]
			if !ok {
				continue
			}
			want.src = append(want.src, uint32(k))
			want.counts[k]++
			if cat {
				want.vc = append(want.vc, uint32(v.C))
			} else {
				want.vf = append(want.vf, v.F)
			}
		}
		want.maxObs = max(want.maxObs, len(want.src)-int(want.off[e]))
	}
	want.off[N*M] = int32(len(want.src))
	for m := 0; m < M; m++ {
		if b.Prop(m).Type == Categorical {
			want.maxCats = max(want.maxCats, b.Prop(m).NumCats())
		}
	}
	return want
}

// diffColumns describes the first difference between two Datasets'
// claim columns, counts and extents, or returns "" when they agree. Floats
// compare bit for bit.
func diffColumns(got, want *Dataset) string {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !slices.Equal(got.off, want.off):
		return fmt.Sprintf("off %v, want %v", got.off, want.off)
	case !slices.Equal(got.src, want.src):
		return fmt.Sprintf("src %v, want %v", got.src, want.src)
	case !slices.Equal(got.voff, want.voff):
		return fmt.Sprintf("voff %v, want %v", got.voff, want.voff)
	case !slices.EqualFunc(got.vf, want.vf, sameBits):
		return fmt.Sprintf("vf %v, want %v", got.vf, want.vf)
	case !slices.Equal(got.vc, want.vc):
		return fmt.Sprintf("vc %v, want %v", got.vc, want.vc)
	case !slices.Equal(got.counts, want.counts):
		return fmt.Sprintf("counts %v, want %v", got.counts, want.counts)
	case got.maxObs != want.maxObs || got.maxCats != want.maxCats:
		return fmt.Sprintf("extents %d/%d, want %d/%d", got.maxObs, got.maxCats, want.maxObs, want.maxCats)
	}
	return ""
}

// TestBuildMatchesLastWinsModelQuick: Build's columns equal the model's,
// the accessors read them back, and every built Dataset validates.
func TestBuildMatchesLastWinsModelQuick(t *testing.T) {
	f := func(seed int64) bool {
		b := randomLog(seed)
		d := b.Build()
		want := lastWins(b)
		if diff := diffColumns(d, want); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		if err := d.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if d.NumObservations() != len(want.src) {
			return false
		}
		for e := 0; e < d.NumEntries(); e++ {
			i, m := d.EntryObject(e), d.EntryProp(e)
			var seen []int
			d.ForEntry(e, func(k int, v Value) {
				seen = append(seen, k)
				if !d.Has(k, i, m) || d.Get(k, i, m) != v {
					t.Logf("seed %d: entry %d source %d: Has/Get disagree with ForEntry's %+v", seed, e, k, v)
					seen = nil
				}
			})
			if len(seen) != d.EntryObservers(e) {
				return false
			}
			for k := 0; k < d.NumSources(); k++ {
				if !slices.Contains(seen, k) && (d.Has(k, i, m) || d.Get(k, i, m) != (Value{})) {
					t.Logf("seed %d: entry %d source %d: unclaimed, yet Has/Get report a value", seed, e, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildColumnsMatchForEntry: on a dense mixed log with re-claimed
// cells, each entry's typed columns read back the last claim of every
// observing source, in ascending source order and bit for bit, and
// ForEntry walks the same claims.
func TestBuildColumnsMatchForEntry(t *testing.T) {
	const K, N = 9, 120
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder()
	pf := b.MustProperty("f", Continuous)
	pc := b.MustProperty("c", Categorical)
	for _, s := range []string{"x", "y", "z", "w"} {
		b.CatValue(pc, s)
	}
	type claim struct {
		ok bool
		v  Value
	}
	want := make([][K]claim, N*b.NumProps())
	observe := func(k, i, m int, v Value) {
		b.ObserveIdx(k, i, m, v)
		want[i*b.NumProps()+m][k] = claim{true, v}
	}
	for i := 0; i < N; i++ {
		obj := b.Object(fmt.Sprintf("o%04d", i))
		for k := 0; k < K; k++ {
			src := b.Source(fmt.Sprintf("s%02d", k))
			if rng.Float64() < 0.7 {
				observe(src, obj, pf, Float(rng.NormFloat64()*10))
			}
			if rng.Float64() < 0.7 {
				observe(src, obj, pc, Cat(rng.Intn(4)))
			}
		}
	}
	for r := 0; r < N; r++ {
		observe(rng.Intn(K), rng.Intn(N), pf, Float(rng.NormFloat64()*10))
		observe(rng.Intn(K), rng.Intn(N), pc, Cat(rng.Intn(4)))
	}
	d := b.Build()
	total := 0
	for e := 0; e < d.NumEntries(); e++ {
		var srcs []uint32
		var vals []Value
		for k, c := range want[e] {
			if c.ok {
				srcs = append(srcs, uint32(k))
				vals = append(vals, c.v)
			}
		}
		total += len(srcs)
		if got := d.EntrySources(e); !slices.Equal(got, srcs) || d.EntryObservers(e) != len(srcs) {
			t.Fatalf("entry %d: sources %v (%d observers), want %v", e, got, d.EntryObservers(e), srcs)
		}
		if d.Prop(d.EntryProp(e)).Type == Categorical {
			got := d.EntryCodes(e)
			if len(got) != len(srcs) {
				t.Fatalf("entry %d: %d codes, want %d", e, len(got), len(srcs))
			}
			for j, c := range got {
				if c != uint32(vals[j].C) {
					t.Fatalf("entry %d claim %d: code %d, want %d", e, j, c, vals[j].C)
				}
			}
		} else {
			got := d.EntryFloats(e)
			if len(got) != len(srcs) {
				t.Fatalf("entry %d: %d values, want %d", e, len(got), len(srcs))
			}
			for j, v := range got {
				if math.Float64bits(v) != math.Float64bits(vals[j].F) {
					t.Fatalf("entry %d claim %d: value %v, want %v", e, j, v, vals[j].F)
				}
			}
		}
		j := 0
		d.ForEntry(e, func(k int, v Value) {
			if j >= len(srcs) || k != int(srcs[j]) || v != vals[j] {
				t.Fatalf("entry %d: ForEntry's claim %d is source %d %+v, want the columns' claims %v %+v", e, j, k, v, srcs, vals)
			}
			j++
		})
		if j != len(srcs) {
			t.Fatalf("entry %d: ForEntry walked %d claims, want %d", e, j, len(srcs))
		}
	}
	if d.NumObservations() != total {
		t.Fatalf("%d observations, want %d", d.NumObservations(), total)
	}
}

// TestBuildEmptyEntries: entries and sources nobody claimed get empty
// claim ranges and zero counts, and MaxObservers reflects the densest
// entry.
func TestBuildEmptyEntries(t *testing.T) {
	b := NewBuilder()
	pf := b.MustProperty("f", Continuous)
	b.MustProperty("c", Categorical)
	a := b.Object("a")
	b.Object("b")
	b.Source("idle")
	b.ObserveIdx(b.Source("s0"), a, pf, Float(1))
	b.ObserveIdx(b.Source("s1"), a, pf, Float(2))
	d := b.Build()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Entries run (a,f), (a,c), (b,f), (b,c).
	for e, want := range []int{2, 0, 0, 0} {
		if got := d.EntryObservers(e); got != want || len(d.EntrySources(e)) != want {
			t.Fatalf("entry %d: %d observers, %d sources, want %d", e, got, len(d.EntrySources(e)), want)
		}
	}
	if len(d.EntryCodes(1)) != 0 || len(d.EntryFloats(2)) != 0 || len(d.EntryCodes(3)) != 0 {
		t.Fatal("an unclaimed entry has values")
	}
	if d.MaxObservers() != 2 || d.MaxCats() != 0 {
		t.Fatalf("extents %d/%d, want 2/0", d.MaxObservers(), d.MaxCats())
	}
	if got := d.EntrySources(0); !slices.Equal(got, []uint32{1, 2}) {
		t.Fatalf("entry 0 sources %v, want [1 2]", got)
	}
	if got := d.EntryFloats(0); !slices.Equal(got, []float64{1, 2}) {
		t.Fatalf("entry 0 floats %v, want [1 2]", got)
	}
	for k, want := range []int{0, 1, 1} {
		if got := d.ObservationCount(k); got != want {
			t.Fatalf("source %d: %d observations, want %d", k, got, want)
		}
	}
}

// TestBuildDeterministicRebuildQuick: building the same log twice gives
// identical columns, counts, extents and category dictionaries.
func TestBuildDeterministicRebuildQuick(t *testing.T) {
	f := func(seed int64) bool {
		b := randomLog(seed)
		x, y := b.Build(), b.Build()
		if diff := diffColumns(y, x); diff != "" {
			t.Logf("seed %d: rebuild: %s", seed, diff)
			return false
		}
		for m := 0; m < x.NumProps(); m++ {
			if px, py := x.Prop(m), y.Prop(m); !slices.Equal(px.cats, py.cats) {
				t.Logf("seed %d: property %d categories %v, then %v", seed, m, px.cats, py.cats)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCategoryCodesDeterministicAcrossDatasetRebuildsQuick: rebuilding a
// dataset from scratch, by replaying the same named claims into a fresh
// Builder, hands out the same category codes: each is its category's
// rank by first mention, so the value columns agree code for code.
func TestCategoryCodesDeterministicAcrossDatasetRebuildsQuick(t *testing.T) {
	type claim struct{ src, obj, prop, cat string }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		claims := make([]claim, 1+rng.Intn(60))
		for r := range claims {
			claims[r] = claim{
				fmt.Sprintf("s%d", rng.Intn(4)), fmt.Sprintf("o%d", rng.Intn(6)),
				fmt.Sprintf("k%d", rng.Intn(3)), fmt.Sprintf("v%d", rng.Intn(8)),
			}
		}
		replay := func() *Dataset {
			b := NewBuilder()
			for _, c := range claims {
				if err := b.ObserveCat(c.src, c.obj, c.prop, c.cat); err != nil {
					t.Fatal(err)
				}
			}
			return b.Build()
		}
		x, y := replay(), replay()
		if diff := diffColumns(y, x); diff != "" {
			t.Logf("seed %d: replay: %s", seed, diff)
			return false
		}
		first := make(map[string][]string) // property → categories by first mention
		for _, c := range claims {
			if !slices.Contains(first[c.prop], c.cat) {
				first[c.prop] = append(first[c.prop], c.cat)
			}
		}
		for m := 0; m < x.NumProps(); m++ {
			px, py := x.Prop(m), y.Prop(m)
			if want := first[px.Name]; !slices.Equal(px.cats, want) || !slices.Equal(py.cats, want) {
				t.Logf("seed %d: property %s categories %v and %v, want %v", seed, px.Name, px.cats, py.cats, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSliceMatchesBuildOfKeptRowsQuick: slicing a built Dataset gives
// the same Dataset as building only the kept objects' rows.
func TestSliceMatchesBuildOfKeptRowsQuick(t *testing.T) {
	f := func(seed int64, mask uint16) bool {
		b := randomLog(seed)
		d := b.Build()
		keep := func(i int) bool { return mask&(1<<(uint(i)%16)) != 0 }
		got := d.Slice(keep)

		kb := NewBuilder()
		for m := 0; m < b.NumProps(); m++ {
			p := b.Prop(m)
			kb.MustProperty(p.Name, p.Type)
			for c := 0; c < p.NumCats(); c++ {
				kb.CatValue(m, p.CatName(c))
			}
		}
		for k := 0; k < b.NumSources(); k++ {
			kb.Source(b.SourceName(k))
		}
		kept := make(map[int]int)
		for i := 0; i < d.NumObjects(); i++ {
			if keep(i) {
				kept[i] = kb.Object(d.ObjectName(i))
				if d.HasTimestamps() {
					kb.SetTimestampIdx(kept[i], d.Timestamp(i))
				}
			}
		}
		for r := 0; r < b.NumRows(); r++ {
			if k, i, m, v := b.Row(r); keep(i) {
				kb.ObserveIdx(k, kept[i], m, v)
			}
		}
		want := kb.Build()
		if diff := diffColumns(got, want); diff != "" {
			t.Logf("seed %d mask %#x: %s", seed, mask, diff)
			return false
		}
		if !slices.Equal(got.objects, want.objects) || !slices.Equal(got.timestamps, want.timestamps) {
			t.Logf("seed %d mask %#x: objects %v@%v, want %v@%v", seed, mask, got.objects, got.timestamps, want.objects, want.timestamps)
			return false
		}
		if err := got.Validate(); err != nil {
			t.Logf("seed %d mask %#x: %v", seed, mask, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestValidateRejectsCorruptColumns corrupts one part of a built
// Dataset's columns at a time; Validate must name each.
func TestValidateRejectsCorruptColumns(t *testing.T) {
	b := NewBuilder()
	for _, o := range []struct{ src, obj string }{{"s0", "o0"}, {"s1", "o0"}, {"s2", "o1"}} {
		if err := b.ObserveFloat(o.src, o.obj, "x", float64(len(o.src+o.obj))); err != nil {
			t.Fatal(err)
		}
		if err := b.ObserveCat(o.src, o.obj, "c", o.obj); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 0 (o0, x) holds sources 0 and 1; entry 1 (o0, c) is the
	// first categorical entry.
	for _, tc := range []struct {
		name, want string
		corrupt    func(d *Dataset)
	}{
		{"offset past the claims", "out of order or past", func(d *Dataset) { d.off[1] = int32(len(d.src) + 1) }},
		{"decreasing offsets", "out of order or past", func(d *Dataset) { d.off[2] = d.off[1] - 1 }},
		{"claim total", "claim offsets span", func(d *Dataset) { d.off[len(d.off)-1]-- }},
		{"offsets length", "offsets sized", func(d *Dataset) { d.off = d.off[:len(d.off)-1] }},
		{"unsorted sources", "not ascending", func(d *Dataset) { d.src[0], d.src[1] = d.src[1], d.src[0] }},
		{"repeated source", "not ascending", func(d *Dataset) { d.src[1] = d.src[0] }},
		{"source out of range", "out of range", func(d *Dataset) { d.src[1] = uint32(len(d.sources)) }},
		{"category out of range", "category", func(d *Dataset) { d.vc[0] = uint32(d.props[1].NumCats()) }},
		{"value offset", "value offset", func(d *Dataset) { d.voff[1]++ }},
		{"value column length", "value columns sized", func(d *Dataset) { d.vf = append(d.vf, 0) }},
		{"source count", "count", func(d *Dataset) { d.counts[0]++ }},
		{"extents", "extents", func(d *Dataset) { d.maxObs++ }},
	} {
		d := b.Build()
		if err := d.Validate(); err != nil {
			t.Fatalf("built dataset: %v", err)
		}
		tc.corrupt(d)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
