package data

import (
	"fmt"
	"maps"
	"math"
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
// further observations affect only later Builds.
func (b *Builder) Build() *Dataset {
	N, M, K := len(b.objects), len(b.props), len(b.sources)
	d := &Dataset{
		objects: append([]string(nil), b.objects...),
		props:   append([]Property(nil), b.props...),
		sources: append([]string(nil), b.sources...),
		obs:     make([][]Value, K),
		present: make([][]bool, K),
		counts:  make([]int, K),
	}
	for m := range d.props {
		// The dictionaries are copied, not shared: a later CatValue or
		// ObserveCat must not grow a dictionary a built Dataset reads.
		if p := &d.props[m]; p.cats != nil {
			p.cats = append([]string(nil), p.cats...)
			p.catByID = maps.Clone(p.catByID)
		}
	}
	for k := 0; k < K; k++ {
		d.obs[k] = make([]Value, N*M)
		d.present[k] = make([]bool, N*M)
	}
	for _, o := range b.obs {
		e := o.obj*M + o.prop
		if !d.present[o.src][e] {
			d.present[o.src][e] = true
			d.counts[o.src]++
		}
		d.obs[o.src][e] = o.val
	}
	if b.timestamps != nil {
		d.timestamps = make([]int, N)
		for i, t := range b.timestamps {
			d.timestamps[i] = t
		}
	}
	return d
}
