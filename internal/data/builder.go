package data

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Builder incrementally assembles a Dataset from observation triples.
// Objects, properties, sources and categorical values are interned on first
// mention; observations may arrive in any order. A Builder is not safe for
// concurrent use.
type Builder struct {
	objects  []string
	objByID  map[string]int
	props    []Property
	propByID map[string]int
	sources  []string
	srcByID  map[string]int

	obs []rawObs
	// timestamps[i] is object i's timestamp: nil until the first
	// SetTimestamp, and shorter than objects when the last objects
	// interned carry none.
	timestamps []int

	// last is the Dataset the previous Build returned and built the
	// number of rows it covers; the next Build folds only the rows
	// recorded since into it.
	last  *Dataset
	built int
}

type rawObs struct {
	src, obj, prop int
	val            Value
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		objByID:  make(map[string]int),
		propByID: make(map[string]int),
		srcByID:  make(map[string]int),
	}
}

// Schema returns an empty Builder holding b's sources and properties,
// in b's order and with their types, but no objects, categories, rows
// or timestamps. A Dataset built from it numbers every source and
// property as b does, so per-source state kept across such Datasets
// (I-CRH's chunks) stays aligned.
func (b *Builder) Schema() *Builder {
	c := NewBuilder()
	for _, s := range b.sources {
		c.Source(s)
	}
	for _, p := range b.props {
		c.MustProperty(p.Name, p.Type)
	}
	return c
}

// Object interns an object name and returns its index.
func (b *Builder) Object(name string) int {
	if id, ok := b.objByID[name]; ok {
		return id
	}
	id := len(b.objects)
	b.objects = append(b.objects, name)
	b.objByID[name] = id
	return id
}

// Source interns a source name and returns its index.
func (b *Builder) Source(name string) int {
	if id, ok := b.srcByID[name]; ok {
		return id
	}
	id := len(b.sources)
	b.sources = append(b.sources, name)
	b.srcByID[name] = id
	return id
}

// Property interns a property with the given type and returns its index.
// It returns an error if the property already exists with a different type.
func (b *Builder) Property(name string, t Type) (int, error) {
	if id, ok := b.propByID[name]; ok {
		if b.props[id].Type != t {
			return 0, fmt.Errorf("data: property %q redeclared as %v (was %v)", name, t, b.props[id].Type)
		}
		return id, nil
	}
	id := len(b.props)
	b.props = append(b.props, Property{Name: name, Type: t})
	b.propByID[name] = id
	return id, nil
}

// MustProperty is Property but panics on type conflicts. Intended for
// programmatic schema construction where a conflict is a bug.
func (b *Builder) MustProperty(name string, t Type) int {
	id, err := b.Property(name, t)
	if err != nil {
		panic(err)
	}
	return id
}

// ObserveFloat records a continuous observation. The property is created as
// Continuous on first mention; an error is returned if it exists as
// Categorical, or if the value is NaN or infinite — non-finite
// observations would silently poison every weighted aggregate downstream.
func (b *Builder) ObserveFloat(source, object, property string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("data: non-finite observation %v for %s/%s from %s", v, object, property, source)
	}
	p, err := b.Property(property, Continuous)
	if err != nil {
		return err
	}
	b.obs = append(b.obs, rawObs{b.Source(source), b.Object(object), p, Float(v)})
	return nil
}

// ObserveCat records a categorical observation, interning the value into the
// property's dictionary. The property is created as Categorical on first
// mention; an error is returned if it exists as Continuous.
func (b *Builder) ObserveCat(source, object, property, v string) error {
	p, err := b.Property(property, Categorical)
	if err != nil {
		return err
	}
	id := b.props[p].internCat(v)
	b.obs = append(b.obs, rawObs{b.Source(source), b.Object(object), p, Cat(id)})
	return nil
}

// ObserveIdx records an observation by pre-interned indices. It is the fast
// path used by generators; the caller is responsible for index validity
// (categorical values must already be interned via CatValue).
func (b *Builder) ObserveIdx(source, object, property int, v Value) {
	b.obs = append(b.obs, rawObs{source, object, property, v})
}

// Grow reserves room for n more observations, so recording them does
// not reallocate.
func (b *Builder) Grow(n int) { b.obs = slices.Grow(b.obs, n) }

// CatValue interns a categorical value for property p and returns its index.
func (b *Builder) CatValue(p int, s string) int { return b.props[p].internCat(s) }

// SetTimestamp attaches a collection timestamp to an object (creating the
// object if needed). Datasets where any object has a timestamp report
// HasTimestamps; untimestamped objects default to 0.
func (b *Builder) SetTimestamp(object string, t int) { b.SetTimestampIdx(b.Object(object), t) }

// SetTimestampIdx is SetTimestamp by object index.
func (b *Builder) SetTimestampIdx(object, t int) {
	if n := object + 1 - len(b.timestamps); n > 0 {
		b.timestamps = append(b.timestamps, make([]int, n)...)
	}
	b.timestamps[object] = t
}

// NumObjects returns the number of objects interned so far.
func (b *Builder) NumObjects() int { return len(b.objects) }

// NumSources returns the number of sources interned so far.
func (b *Builder) NumSources() int { return len(b.sources) }

// NumProps returns the number of properties interned so far.
func (b *Builder) NumProps() int { return len(b.props) }

// ObjectName returns the name of object i.
func (b *Builder) ObjectName(i int) string { return b.objects[i] }

// SourceName returns the name of source k.
func (b *Builder) SourceName(k int) string { return b.sources[k] }

// Prop returns property m, category dictionary included. The returned
// pointer must be treated as read-only and not kept across a call that
// interns a property or a category.
func (b *Builder) Prop(m int) *Property { return &b.props[m] }

// PropertyIndex returns the index of the named property and whether it
// has been interned, without interning it.
func (b *Builder) PropertyIndex(name string) (int, bool) {
	id, ok := b.propByID[name]
	return id, ok
}

// NumRows returns the number of observations recorded so far, repeated
// (source, entry) pairs included: the rows the next Build replays.
func (b *Builder) NumRows() int { return len(b.obs) }

// Row returns the ith recorded observation by interned indices.
func (b *Builder) Row(i int) (source, object, property int, v Value) {
	o := b.obs[i]
	return o.src, o.obj, o.prop, o.val
}

// Build materializes the Dataset. Duplicate observations of the same
// (source, entry) keep the last value recorded. The Builder remains usable;
// further observations affect only later Builds. Build panics if the
// Builder holds more than MaxInt32 observations: the int32 claim offsets
// are half the footprint of int64, and a log beyond 2³¹ rows does not fit
// the in-process representation anyway.
//
// Build is incremental: the Builder keeps the Dataset it last built, so
// that Dataset stays reachable as long as the Builder does, and folds
// only the rows recorded since into it. Those rows are counting-sorted
// by entry; one walk of the entry grid then merges each entry's previous
// claims with its new rows, which copies an untouched entry's. The
// cost is linear in the new rows plus the entries and the claims copied,
// not in the log's rows; the first Build sorts every row. Either way the
// Dataset equals a fresh Builder's Build of the same log.
func (b *Builder) Build() *Dataset {
	N, M, K := len(b.objects), len(b.props), len(b.sources)
	NM := N * M
	if len(b.obs) > math.MaxInt32 {
		panic(fmt.Sprintf("data: %d observations overflow the int32 claim index", len(b.obs)))
	}
	prev := b.last
	if prev == nil {
		prev = &Dataset{off: make([]int32, 1)}
	}
	// Names are append-only in the Builder, so the Dataset shares them,
	// capped: a later interning never shows through.
	d := &Dataset{
		objects: b.objects[:N:N],
		props:   make([]Property, M),
		sources: b.sources[:K:K],
		off:     make([]int32, NM+1),
		voff:    make([]int32, NM),
		counts:  make([]int, K),
		maxObs:  prev.maxObs,
	}
	for m := range d.props {
		// A built Dataset owns its dictionaries: a later CatValue or
		// ObserveCat must not grow one it reads. A dictionary that did
		// not grow since the last Build is shared with that Dataset.
		p := &d.props[m]
		if *p = b.props[m]; m < len(prev.props) && prev.props[m].NumCats() == p.NumCats() {
			*p = prev.props[m]
		} else if p.cats != nil {
			p.cats = slices.Clone(p.cats)
			p.catByID = maps.Clone(p.catByID)
		}
		if p.Type == Categorical {
			d.maxCats = max(d.maxCats, p.NumCats())
		}
	}
	copy(d.counts, prev.counts)
	f := fold{d: d, prev: prev, M: M, pN: prev.NumObjects(), pM: prev.NumProps()}
	rows, spans := b.sortRows(b.built, M, K, NM)

	// The columns have room for the previous claims plus every new row
	// sortRows kept. A new row that replaces a previous claim leaves one
	// slot unused, so the spare capacity is at most those rows.
	nf, nc := len(prev.vf), len(prev.vc)
	for e, s := range spans {
		if d.props[e%M].Type == Categorical {
			nc += int(s.hi - s.lo)
		} else {
			nf += int(s.hi - s.lo)
		}
	}
	d.src = make([]uint32, nf+nc)
	d.vf = make([]float64, nf)
	d.vc = make([]uint32, nc)

	for e := range NM {
		f.merge(b.obs, e, rows[spans[e].lo:spans[e].hi])
	}
	d.src, d.vf, d.vc = d.src[:f.ns], d.vf[:f.nf], d.vc[:f.nc]
	d.off[NM] = f.ns
	if b.timestamps != nil {
		d.timestamps = make([]int, N)
		copy(d.timestamps, b.timestamps)
	}
	b.last, b.built = d, len(b.obs)
	return d
}

// span is one entry's run of sorted rows, rows[lo:hi]; last is the
// source of its last row plus one, or 0 before the first.
type span struct{ lo, hi, last int32 }

// sortRows orders the rows recorded from row from on entry-major: a
// counting sort by source, then a stable one by entry, so each entry's
// rows run in ascending source order. Of a source's repeated claims on
// one entry only the last recorded is kept: it takes the earlier one's
// place. Entry e's rows are rows[spans[e].lo:spans[e].hi].
func (b *Builder) sortRows(from, M, K, NM int) (rows []int32, spans []span) {
	obs := b.obs[from:]
	next := make([]int32, K)
	spans = make([]span, NM)
	for i := range obs {
		o := &obs[i]
		next[o.src]++
		spans[o.obj*M+o.prop].hi++
	}
	var at int32
	for k, n := range next {
		next[k] = at
		at += n
	}
	at = 0
	for e := range spans {
		s := &spans[e]
		s.lo, s.hi, at = at, at, at+s.hi
	}
	bySrc := make([]int32, len(obs))
	for i := range obs {
		k := obs[i].src
		bySrc[next[k]] = int32(from + i)
		next[k]++
	}
	rows = make([]int32, len(obs))
	for _, i := range bySrc {
		o := &b.obs[i]
		s := &spans[o.obj*M+o.prop]
		if k := int32(o.src) + 1; s.last != k {
			s.last = k
			s.hi++
		}
		rows[s.hi-1] = i // a later claim by the same source replaces an earlier one
	}
	return rows, spans
}

// fold writes a Dataset's claim columns in entry order, from the
// previous Dataset's columns and the rows recorded since. Object and
// property indices are append-only, so entry (i, m) of the previous
// Dataset, numbered i*pM+m over its pN objects and pM properties, is
// entry i*M+m of the new one.
type fold struct {
	d, prev    *Dataset
	M, pN, pM  int
	ns, nf, nc int32 // claims, continuous and categorical values written
}

// prevEntry returns entry (i, m)'s index in the previous Dataset, or -1
// when that Dataset predates object i or property m.
func (f *fold) prevEntry(i, m int) int {
	if i >= f.pN || m >= f.pM {
		return -1
	}
	return i*f.pM + m
}

// merge writes entry e, whose new rows are rows, as sortRows leaves
// them: its previous claims merged with them in ascending source order.
// With no new rows it copies the previous claims; an entry the previous
// Dataset lacks has none.
func (f *fold) merge(obs []rawObs, e int, rows []int32) {
	d, prev := f.d, f.prev
	m := e % f.M
	pe := f.prevEntry(e/f.M, m)
	var osrc []uint32
	if pe >= 0 {
		osrc = prev.EntrySources(pe)
	}
	d.off[e] = f.ns
	var n int
	if d.props[m].Type == Categorical {
		var old []uint32
		if pe >= 0 {
			old = prev.EntryCodes(pe)
		}
		d.voff[e] = f.nc
		n = mergeClaims(obs, rows, osrc, old, d.src[f.ns:], d.vc[f.nc:], d.counts)
		f.nc += int32(n)
	} else {
		var old []float64
		if pe >= 0 {
			old = prev.EntryFloats(pe)
		}
		d.voff[e] = f.nf
		n = mergeClaims(obs, rows, osrc, old, d.src[f.ns:], d.vf[f.nf:], d.counts)
		f.nf += int32(n)
	}
	f.ns += int32(n)
	d.maxObs = max(d.maxObs, n)
}

// mergeClaims writes one entry's claims to src and vals: its previous
// claims (osrc, ovals) merged in ascending source order with its new
// rows, one per source and in ascending source order, each replacing
// its source's previous claim. A new row that replaces none adds one to
// its source's count. It returns the number of claims written.
func mergeClaims[V float64 | uint32](obs []rawObs, rows []int32, osrc []uint32, ovals []V, src []uint32, vals []V, counts []int) int {
	n, a := 0, 0
	for _, r := range rows {
		o := &obs[r]
		k := uint32(o.src)
		for ; a < len(osrc) && osrc[a] < k; a++ {
			src[n], vals[n] = osrc[a], ovals[a]
			n++
		}
		if a < len(osrc) && osrc[a] == k {
			a++ // the new claim replaces the previous one
		} else {
			counts[k]++
		}
		src[n], vals[n] = k, valueOf[V](o.val)
		n++
	}
	copy(src[n:], osrc[a:])
	copy(vals[n:], ovals[a:])
	return n + len(osrc) - a
}

// valueOf returns v's payload as a column of V stores it: F in a
// continuous column, C in a categorical one.
func valueOf[V float64 | uint32](v Value) V {
	var col V
	if _, ok := any(col).(float64); ok {
		return V(v.F)
	}
	return V(v.C)
}
