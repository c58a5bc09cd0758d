package data

import (
	"fmt"
	"slices"
)

// Dataset is an immutable multi-source observation matrix: K sources × N
// objects × M typed properties, with missing values. Construct one with a
// Builder; a built Dataset is safe for concurrent readers.
//
// Entries are addressed either by (object, property) index pairs or by a
// flattened entry index e = object*M + property.
//
// The claims are stored entry-major in compressed sparse row (CSR) form,
// so storage is linear in the claims plus one offset pair per entry:
//
//   - off[e] is entry e's first claim in src and off[N*M] the claim
//     count; src holds each entry's observing sources in ascending order;
//   - voff[e] is entry e's first value in vf (continuous properties) or
//     vc (categorical properties, as category indices), so an entry's
//     values are one contiguous typed slice parallel to its sources.
//
// The layout is entry-major because the solver's determinism contract
// (docs/PARALLEL.md) fixes its iteration order over entries, and within
// an entry over ascending sources.
type Dataset struct {
	objects []string
	props   []Property
	sources []string

	off  []int32
	src  []uint32
	voff []int32
	vf   []float64
	vc   []uint32

	// counts[k] is the number of entries source k observed. maxObs is
	// the largest entry's claim count and maxCats the largest category
	// dictionary: together they size a solver's per-entry scratch.
	counts  []int
	maxObs  int
	maxCats int

	// timestamps[i] is an optional collection timestamp for object i,
	// used to chunk the data for streaming (incremental CRH). Nil when
	// the dataset carries no temporal information.
	timestamps []int
}

// NumObjects returns N.
func (d *Dataset) NumObjects() int { return len(d.objects) }

// NumProps returns M.
func (d *Dataset) NumProps() int { return len(d.props) }

// NumSources returns K.
func (d *Dataset) NumSources() int { return len(d.sources) }

// NumEntries returns N*M, the number of addressable entries.
func (d *Dataset) NumEntries() int { return len(d.objects) * len(d.props) }

// NumObservations returns the total number of (source, entry) observations.
func (d *Dataset) NumObservations() int { return len(d.src) }

// ObjectName returns the name of object i.
func (d *Dataset) ObjectName(i int) string { return d.objects[i] }

// SourceName returns the name of source k.
func (d *Dataset) SourceName(k int) string { return d.sources[k] }

// Prop returns property m. The returned pointer must be treated as
// read-only.
func (d *Dataset) Prop(m int) *Property { return &d.props[m] }

// Entry flattens an (object, property) pair into an entry index.
func (d *Dataset) Entry(i, m int) int { return i*len(d.props) + m }

// EntryObject returns the object index of entry e.
func (d *Dataset) EntryObject(e int) int { return e / len(d.props) }

// EntryProp returns the property index of entry e.
func (d *Dataset) EntryProp(e int) int { return e % len(d.props) }

// Has reports whether source k observed entry (i, m).
func (d *Dataset) Has(k, i, m int) bool {
	_, ok := slices.BinarySearch(d.EntrySources(d.Entry(i, m)), uint32(k))
	return ok
}

// Get returns source k's observation of entry (i, m), or the zero Value
// when Has(k, i, m) is false.
func (d *Dataset) Get(k, i, m int) Value {
	e := d.Entry(i, m)
	j, ok := slices.BinarySearch(d.EntrySources(e), uint32(k))
	if !ok {
		return Value{}
	}
	if d.props[m].Type == Categorical {
		return Cat(int(d.EntryCodes(e)[j]))
	}
	return Float(d.EntryFloats(e)[j])
}

// ObservationCount returns the number of entries source k observed.
func (d *Dataset) ObservationCount(k int) int { return d.counts[k] }

// ForEntry calls fn for every source that observed entry e, in ascending
// source order.
func (d *Dataset) ForEntry(e int, fn func(k int, v Value)) {
	srcs := d.EntrySources(e)
	if d.props[d.EntryProp(e)].Type == Categorical {
		for j, c := range d.EntryCodes(e) {
			fn(int(srcs[j]), Cat(int(c)))
		}
		return
	}
	for j, f := range d.EntryFloats(e) {
		fn(int(srcs[j]), Float(f))
	}
}

// EntryObservers returns the number of sources observing entry e.
func (d *Dataset) EntryObservers(e int) int { return int(d.off[e+1] - d.off[e]) }

// EntrySources returns the sources observing entry e, ascending. The
// slice is the dataset's own storage and must be treated as read-only.
func (d *Dataset) EntrySources(e int) []uint32 {
	lo, hi := d.off[e], d.off[e+1]
	return d.src[lo:hi:hi]
}

// EntryFloats returns entry e's continuous values, parallel to
// EntrySources(e). It must be called only for a continuous entry, and
// the slice treated as read-only.
func (d *Dataset) EntryFloats(e int) []float64 {
	lo := d.voff[e]
	hi := lo + d.off[e+1] - d.off[e]
	return d.vf[lo:hi:hi]
}

// EntryCodes returns entry e's category indices, parallel to
// EntrySources(e). It must be called only for a categorical entry, and
// the slice treated as read-only.
func (d *Dataset) EntryCodes(e int) []uint32 {
	lo := d.voff[e]
	hi := lo + d.off[e+1] - d.off[e]
	return d.vc[lo:hi:hi]
}

// MaxObservers returns the largest number of sources observing one entry.
func (d *Dataset) MaxObservers() int { return d.maxObs }

// MaxCats returns the largest categorical dictionary's size (0 when no
// property is categorical).
func (d *Dataset) MaxCats() int { return d.maxCats }

// HasTimestamps reports whether the dataset carries per-object timestamps.
func (d *Dataset) HasTimestamps() bool { return d.timestamps != nil }

// Timestamp returns object i's collection timestamp (0 when absent).
func (d *Dataset) Timestamp(i int) int {
	if d.timestamps == nil {
		return 0
	}
	return d.timestamps[i]
}

// TimestampRange returns the minimum and maximum object timestamps.
// Both are 0 when the dataset carries no timestamps or no objects.
func (d *Dataset) TimestampRange() (min, max int) {
	if d.timestamps == nil || len(d.timestamps) == 0 {
		return 0, 0
	}
	min, max = d.timestamps[0], d.timestamps[0]
	for _, t := range d.timestamps[1:] {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	return min, max
}

// Slice returns a new Dataset containing only the objects for which keep
// returns true. Sources, properties and categorical dictionaries are shared
// with the receiver (they are read-only), so slicing is cheap in memory.
// Used by the streaming layer to materialize per-timestamp chunks.
func (d *Dataset) Slice(keep func(object int) bool) *Dataset {
	M := len(d.props)
	var kept []int
	var nf, nc int
	for i := range d.objects {
		if !keep(i) {
			continue
		}
		kept = append(kept, i)
		for m := range d.props {
			if n := d.EntryObservers(i*M + m); d.props[m].Type == Categorical {
				nc += n
			} else {
				nf += n
			}
		}
	}
	out := &Dataset{
		objects: make([]string, len(kept)),
		props:   d.props,
		sources: d.sources,
		off:     make([]int32, len(kept)*M+1),
		src:     make([]uint32, 0, nf+nc),
		voff:    make([]int32, len(kept)*M),
		vf:      make([]float64, 0, nf),
		vc:      make([]uint32, 0, nc),
		counts:  make([]int, len(d.sources)),
		maxCats: d.maxCats,
	}
	if d.timestamps != nil {
		out.timestamps = make([]int, len(kept))
	}
	for ni, i := range kept {
		out.objects[ni] = d.objects[i]
		if d.timestamps != nil {
			out.timestamps[ni] = d.timestamps[i]
		}
		for m := range d.props {
			e, ne := i*M+m, ni*M+m
			srcs := d.EntrySources(e)
			out.off[ne] = int32(len(out.src))
			out.src = append(out.src, srcs...)
			if d.props[m].Type == Categorical {
				out.voff[ne] = int32(len(out.vc))
				out.vc = append(out.vc, d.EntryCodes(e)...)
			} else {
				out.voff[ne] = int32(len(out.vf))
				out.vf = append(out.vf, d.EntryFloats(e)...)
			}
			for _, k := range srcs {
				out.counts[k]++
			}
			out.maxObs = max(out.maxObs, len(srcs))
		}
	}
	out.off[len(kept)*M] = int32(len(out.src))
	return out
}

// Validate checks internal consistency and returns a descriptive error on
// the first violation found. A Dataset produced by Builder.Build always
// validates.
func (d *Dataset) Validate() error {
	NM, M, K := d.NumEntries(), len(d.props), len(d.sources)
	if len(d.off) != NM+1 || len(d.voff) != NM {
		return fmt.Errorf("data: offsets sized %d/%d, want %d/%d", len(d.off), len(d.voff), NM+1, NM)
	}
	if d.off[0] != 0 || int(d.off[NM]) != len(d.src) {
		return fmt.Errorf("data: claim offsets span [%d,%d), want [0,%d)", d.off[0], d.off[NM], len(d.src))
	}
	if len(d.counts) != K {
		return fmt.Errorf("data: %d source counts for %d sources", len(d.counts), K)
	}
	counts := make([]int, K)
	var nf, nc, maxObs, maxCats int
	for e := 0; e < NM; e++ {
		lo, hi := d.off[e], d.off[e+1]
		if hi < lo || int(hi) > len(d.src) {
			return fmt.Errorf("data: entry %d claims [%d,%d) out of order or past %d", e, lo, hi, len(d.src))
		}
		n := int(hi - lo)
		maxObs = max(maxObs, n)
		for j := lo; j < hi; j++ {
			k := d.src[j]
			if int(k) >= K || (j > lo && k <= d.src[j-1]) {
				return fmt.Errorf("data: entry %d claim %d: source %d out of range or not ascending", e, j, k)
			}
			counts[k]++
		}
		p := &d.props[e%M]
		if p.Type != Categorical {
			if int(d.voff[e]) != nf || nf+n > len(d.vf) {
				return fmt.Errorf("data: entry %d value offset %d, want %d of %d", e, d.voff[e], nf, len(d.vf))
			}
			nf += n
			continue
		}
		if int(d.voff[e]) != nc || nc+n > len(d.vc) {
			return fmt.Errorf("data: entry %d value offset %d, want %d of %d", e, d.voff[e], nc, len(d.vc))
		}
		nc += n
		for _, c := range d.EntryCodes(e) {
			if int(c) >= p.NumCats() {
				return fmt.Errorf("data: entry %d category %d out of range [0,%d)", e, c, p.NumCats())
			}
		}
	}
	if nf != len(d.vf) || nc != len(d.vc) {
		return fmt.Errorf("data: value columns sized %d/%d, want %d/%d", len(d.vf), len(d.vc), nf, nc)
	}
	for k, c := range counts {
		if c != d.counts[k] {
			return fmt.Errorf("data: source %d count %d, want %d", k, d.counts[k], c)
		}
	}
	for m := range d.props {
		if d.props[m].Type == Categorical {
			maxCats = max(maxCats, d.props[m].NumCats())
		}
	}
	if maxObs != d.maxObs || maxCats != d.maxCats {
		return fmt.Errorf("data: extents %d/%d, want %d/%d", d.maxObs, d.maxCats, maxObs, maxCats)
	}
	if d.timestamps != nil && len(d.timestamps) != len(d.objects) {
		return fmt.Errorf("data: %d timestamps for %d objects", len(d.timestamps), len(d.objects))
	}
	return nil
}
