package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/wal"
)

// replayLog is a string-keyed claim log with a whole-log replay: every
// claim's names hashed again through a fresh data.Builder for every
// version. It is the reference the interned claimLog must reproduce
// exactly.
type replayLog struct {
	sources []string
	srcSet  map[string]bool
	props   []replayProp
	propSet map[string]bool
	log     []wal.Obs
}

type replayProp struct {
	name string
	typ  data.Type
}

func newReplayLog() *replayLog {
	return &replayLog{srcSet: map[string]bool{}, propSet: map[string]bool{}}
}

func (l *replayLog) internSource(name string) {
	if !l.srcSet[name] {
		l.srcSet[name] = true
		l.sources = append(l.sources, name)
	}
}

func (l *replayLog) internProp(name string, t data.Type) {
	if !l.propSet[name] {
		l.propSet[name] = true
		l.props = append(l.props, replayProp{name, t})
	}
}

// absorb flattens an upload: every source and property first, then
// object by object, property by property, each entry's claims in source
// order.
func (l *replayLog) absorb(d *data.Dataset) {
	for k := 0; k < d.NumSources(); k++ {
		l.internSource(d.SourceName(k))
	}
	for m := 0; m < d.NumProps(); m++ {
		l.internProp(d.Prop(m).Name, d.Prop(m).Type)
	}
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			p := d.Prop(m)
			d.ForEntry(d.Entry(i, m), func(k int, v data.Value) {
				o := wal.Obs{Source: d.SourceName(k), Object: d.ObjectName(i), Property: p.Name}
				if p.Type == data.Categorical {
					o.Kind, o.Cat = wal.Categorical, p.CatName(int(v.C))
				} else {
					o.F = v.F
				}
				if d.HasTimestamps() {
					o.TS, o.HasTS = d.Timestamp(i), true
				}
				l.log = append(l.log, o)
			})
		}
	}
}

// add appends one batch, interning its sources and properties first.
func (l *replayLog) add(batch []wal.Obs) {
	for _, o := range batch {
		l.internSource(o.Source)
		l.internProp(o.Property, typeOf(o.Kind))
	}
	l.log = append(l.log, batch...)
}

// rebuild replays the whole log through a fresh Builder.
func (l *replayLog) rebuild() *data.Dataset {
	b := data.NewBuilder()
	for _, s := range l.sources {
		b.Source(s)
	}
	propIdx := make(map[string]int, len(l.props))
	for _, p := range l.props {
		propIdx[p.name] = b.MustProperty(p.name, p.typ)
	}
	for _, o := range l.log {
		obj := b.Object(o.Object)
		if o.HasTS {
			b.SetTimestampIdx(obj, o.TS)
		}
		pid := propIdx[o.Property]
		var v data.Value
		if o.Kind == wal.Categorical {
			v = data.Cat(b.CatValue(pid, o.Cat))
		} else {
			v = data.Float(o.F)
		}
		b.ObserveIdx(b.Source(o.Source), obj, pid, v)
	}
	return b.Build()
}

// replayTSV extends testTSV with a timestamp, which stamps every upload
// claim, and a ground-truth row naming an object no source claims about.
const replayTSV = testTSV + "O\to1\t3\nT\to9\tcond\thail\n"

// seededBatches draws n ingest batches from rng. The name pools widen
// with the batch index, so sources, properties and categories keep
// appearing mid-stream; six objects and few sources make repeated
// (source, entry) claims common within and across batches; about half
// the claims carry a timestamp. Every third batch also ends by
// claiming its first entry again, from the same source, with a freshly
// drawn value.
func seededBatches(rng *rand.Rand, n int) [][]Observation {
	props := []struct {
		name string
		cat  bool
	}{{"temp", false}, {"cond", true}, {"wind", false}, {"sky", true}}
	cats := []string{"sunny", "rain", "snow", "hail", "fog", "sleet"}
	out := make([][]Observation, n)
	for v := range out {
		nSrc := 2 + v/2
		nProp := min(2+v/6, len(props))
		nCat := min(2+v/3, len(cats))
		value := func(cat bool) json.RawMessage {
			if cat {
				return str(cats[rng.Intn(nCat)])
			}
			return num(float64(rng.Intn(40)) / 4)
		}
		size := 1 + rng.Intn(6)
		for j := 0; j < size; j++ {
			p := props[rng.Intn(nProp)]
			o := Observation{
				Source:   fmt.Sprintf("s%d", 1+rng.Intn(nSrc)),
				Object:   fmt.Sprintf("o%d", 1+rng.Intn(6)),
				Property: p.name,
				Value:    value(p.cat),
			}
			if rng.Intn(2) == 0 {
				ts := rng.Intn(100)
				o.Timestamp = &ts
			}
			out[v] = append(out[v], o)
		}
		if v%3 == 2 {
			o := out[v][0]
			o.Value = value(o.Value[0] == '"')
			out[v] = append(out[v], o)
		}
	}
	return out
}

// ingestSeeded creates an entry from replayTSV, ingests n seeded batches
// into it and into a replayLog, and calls check after the create and
// after every batch.
func ingestSeeded(t *testing.T, n int, check func(version int64, e *entry, ref *replayLog)) {
	t.Helper()
	r := NewRegistry(1)
	e, err := r.Create("d", strings.NewReader(replayTSV))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := data.Decode(strings.NewReader(replayTSV))
	if err != nil {
		t.Fatal(err)
	}
	ref := newReplayLog()
	ref.absorb(d)
	check(1, e, ref)
	for _, batch := range seededBatches(rand.New(rand.NewSource(7)), n) {
		version, err := e.Ingest(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		claims, err := validateBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		ref.add(claims)
		check(version, e, ref)
	}
}

// TestSnapshotsMatchStringReplay holds every version's snapshot to a
// fresh replay of the same log: names, dictionaries, claims and
// timestamps.
func TestSnapshotsMatchStringReplay(t *testing.T) {
	ingestSeeded(t, 30, func(version int64, e *entry, ref *replayLog) {
		sameDataset(t, fmt.Sprintf("version %d", version), e.Snapshot().Data, ref.rebuild())
	})
}

// TestWALSnapshotMatchesFedRecords: a checkpoint regenerated from the
// interned log lists exactly the records the log was fed, so checkpoint
// files keep their bytes.
func TestWALSnapshotMatchesFedRecords(t *testing.T) {
	ingestSeeded(t, 30, func(version int64, e *entry, ref *replayLog) {
		e.mu.Lock()
		s := e.walSnapshot(e.log, version)
		e.mu.Unlock()
		if !reflect.DeepEqual(s.Sources, ref.sources) {
			t.Fatalf("version %d: sources %q, want %q", version, s.Sources, ref.sources)
		}
		if len(s.Props) != len(ref.props) {
			t.Fatalf("version %d: %d properties, want %d", version, len(s.Props), len(ref.props))
		}
		for m, p := range ref.props {
			if s.Props[m].Name != p.name || s.Props[m].Kind != kindOf(p.typ) {
				t.Fatalf("version %d: property %d is %+v, want %+v", version, m, s.Props[m], p)
			}
		}
		if !reflect.DeepEqual(s.Obs, ref.log) {
			t.Fatalf("version %d: checkpoint observations differ from the %d records fed in", version, len(ref.log))
		}
	})
}

// sameDataset fails unless got and want agree on every name, category
// dictionary, claim and timestamp.
func sameDataset(t *testing.T, at string, got, want *data.Dataset) {
	t.Helper()
	if got.NumSources() != want.NumSources() || got.NumObjects() != want.NumObjects() ||
		got.NumProps() != want.NumProps() || got.NumObservations() != want.NumObservations() {
		t.Fatalf("%s: %d sources, %d objects, %d properties, %d claims; want %d, %d, %d, %d", at,
			got.NumSources(), got.NumObjects(), got.NumProps(), got.NumObservations(),
			want.NumSources(), want.NumObjects(), want.NumProps(), want.NumObservations())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	for k := 0; k < want.NumSources(); k++ {
		if got.SourceName(k) != want.SourceName(k) {
			t.Fatalf("%s: source %d is %q, want %q", at, k, got.SourceName(k), want.SourceName(k))
		}
	}
	if got.HasTimestamps() != want.HasTimestamps() {
		t.Fatalf("%s: HasTimestamps %v, want %v", at, got.HasTimestamps(), want.HasTimestamps())
	}
	for i := 0; i < want.NumObjects(); i++ {
		if got.ObjectName(i) != want.ObjectName(i) || got.Timestamp(i) != want.Timestamp(i) {
			t.Fatalf("%s: object %d is %q at %d, want %q at %d", at, i,
				got.ObjectName(i), got.Timestamp(i), want.ObjectName(i), want.Timestamp(i))
		}
	}
	for m := 0; m < want.NumProps(); m++ {
		gp, wp := got.Prop(m), want.Prop(m)
		if gp.Name != wp.Name || gp.Type != wp.Type || gp.NumCats() != wp.NumCats() {
			t.Fatalf("%s: property %d is %s/%v with %d categories, want %s/%v with %d", at, m,
				gp.Name, gp.Type, gp.NumCats(), wp.Name, wp.Type, wp.NumCats())
		}
		for c := 0; c < wp.NumCats(); c++ {
			if id, ok := gp.CatID(wp.CatName(c)); gp.CatName(c) != wp.CatName(c) || !ok || id != c {
				t.Fatalf("%s: property %s category %d is %q, want %q", at, wp.Name, c, gp.CatName(c), wp.CatName(c))
			}
		}
	}
	type claim struct {
		k int
		c int32
		f uint64
	}
	claims := func(d *data.Dataset, en int) []claim {
		var out []claim
		d.ForEntry(en, func(k int, v data.Value) { out = append(out, claim{k, v.C, math.Float64bits(v.F)}) })
		return out
	}
	for en := 0; en < want.NumEntries(); en++ {
		if g, w := claims(got, en), claims(want, en); !slices.Equal(g, w) {
			t.Fatalf("%s: entry %d claims %+v, want %+v", at, en, g, w)
		}
	}
}
