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

	obs        []rawObs
	timestamps map[int]int // object index -> timestamp
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
func (b *Builder) SetTimestamp(object string, t int) {
	if b.timestamps == nil {
		b.timestamps = make(map[int]int)
	}
	b.timestamps[b.Object(object)] = t
}

// SetTimestampIdx is SetTimestamp by object index.
func (b *Builder) SetTimestampIdx(object, t int) {
	if b.timestamps == nil {
		b.timestamps = make(map[int]int)
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
// The cost is linear in the observations plus the entries: the rows are
// counting-sorted straight into the Dataset's columns.
func (b *Builder) Build() *Dataset {
	N, M, K := len(b.objects), len(b.props), len(b.sources)
	NM := N * M
	if len(b.obs) > math.MaxInt32 {
		panic(fmt.Sprintf("data: %d observations overflow the int32 claim index", len(b.obs)))
	}
	d := &Dataset{
		objects: append([]string(nil), b.objects...),
		props:   append([]Property(nil), b.props...),
		sources: append([]string(nil), b.sources...),
		off:     make([]int32, NM+1),
		voff:    make([]int32, NM),
		counts:  make([]int, K),
	}
	for m := range d.props {
		// The dictionaries are copied, not shared: a later CatValue or
		// ObserveCat must not grow a dictionary a built Dataset reads.
		p := &d.props[m]
		if p.cats != nil {
			p.cats = append([]string(nil), p.cats...)
			p.catByID = maps.Clone(p.catByID)
		}
		if p.Type == Categorical {
			d.maxCats = max(d.maxCats, p.NumCats())
		}
	}
	rows, end, nc := b.sortRows(M, K, NM)
	d.src = make([]uint32, 0, len(rows))
	d.vf = make([]float64, 0, len(rows)-nc)
	d.vc = make([]uint32, 0, nc)
	var lo int32
	for e := 0; e < NM; e++ {
		hi := end[e]
		cat := d.props[e%M].Type == Categorical
		d.off[e] = int32(len(d.src))
		if cat {
			d.voff[e] = int32(len(d.vc))
		} else {
			d.voff[e] = int32(len(d.vf))
		}
		for j := lo; j < hi; j++ {
			o := &b.obs[rows[j]]
			if j+1 < hi && b.obs[rows[j+1]].src == o.src {
				continue // a later claim by the same source replaces this one
			}
			d.src = append(d.src, uint32(o.src))
			d.counts[o.src]++
			if cat {
				d.vc = append(d.vc, uint32(o.val.C))
			} else {
				d.vf = append(d.vf, o.val.F)
			}
		}
		d.maxObs = max(d.maxObs, len(d.src)-int(d.off[e]))
		lo = hi
	}
	d.off[NM] = int32(len(d.src))
	if len(d.src) < len(rows) {
		// Duplicates were dropped; give back the columns' spare room.
		d.src = append([]uint32(nil), d.src...)
		d.vf = append([]float64(nil), d.vf...)
		d.vc = append([]uint32(nil), d.vc...)
	}
	if b.timestamps != nil {
		d.timestamps = make([]int, N)
		for i, t := range b.timestamps {
			d.timestamps[i] = t
		}
	}
	return d
}

// sortRows orders the recorded rows entry-major: a counting sort by
// source, then a stable one by entry, so each entry's rows run in
// ascending source order and a source's repeated claims in recording
// order. It returns the row indices, end[e] one past entry e's last row,
// and how many rows fall on categorical properties.
func (b *Builder) sortRows(M, K, NM int) (rows, end []int32, nc int) {
	next := make([]int32, K)
	end = make([]int32, NM)
	for i := range b.obs {
		o := &b.obs[i]
		next[o.src]++
		end[o.obj*M+o.prop]++
	}
	var at int32
	for k, n := range next {
		next[k] = at
		at += n
	}
	at = 0
	for e, n := range end {
		end[e] = at
		at += n
		if b.props[e%M].Type == Categorical {
			nc += int(n)
		}
	}
	bySrc := make([]int32, len(b.obs))
	for i := range b.obs {
		k := b.obs[i].src
		bySrc[next[k]] = int32(i)
		next[k]++
	}
	rows = make([]int32, len(b.obs))
	for _, i := range bySrc {
		o := &b.obs[i]
		e := o.obj*M + o.prop
		rows[end[e]] = i
		end[e]++ // ends as one past the entry's last row
	}
	return rows, end, nc
}
