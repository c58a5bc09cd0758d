package server

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/stream"
)

const testTSV = `# two-source toy dataset
P	temp	continuous
P	cond	categorical
V	o1	temp	s1	10
V	o1	temp	s2	12
V	o1	cond	s1	sunny
V	o1	cond	s2	sunny
V	o2	temp	s1	20
V	o2	temp	s2	26
V	o2	cond	s1	rain
V	o2	cond	s2	snow
T	o1	temp	10.5
T	o1	cond	sunny
`

func num(v float64) json.RawMessage {
	b, _ := json.Marshal(v)
	return b
}

func str(s string) json.RawMessage {
	b, _ := json.Marshal(s)
	return b
}

func TestRegistryCreateListDelete(t *testing.T) {
	r := NewRegistry(1)
	e, err := r.Create("weather", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	info := e.Info()
	if info.Version != 1 || info.Sources != 2 || info.Objects != 2 || info.Properties != 2 || info.Observations != 8 {
		t.Fatalf("info = %+v", info)
	}
	if !info.HasTruth {
		t.Fatal("ground truth lost on load")
	}

	if _, err := r.Create("weather", strings.NewReader("")); err != errExists {
		t.Fatalf("duplicate create: %v, want errExists", err)
	}
	if _, err := r.Create("bad/name", strings.NewReader("")); err != errBadName {
		t.Fatalf("bad name: %v, want errBadName", err)
	}
	if _, err := r.Create("", strings.NewReader("")); err != errBadName {
		t.Fatalf("empty name: %v, want errBadName", err)
	}

	if _, err := r.Create("empty", strings.NewReader("")); err != nil {
		t.Fatalf("empty dataset create: %v", err)
	}
	list := r.List()
	if len(list) != 2 || list[0].Name != "empty" || list[1].Name != "weather" {
		t.Fatalf("list = %+v", list)
	}

	if ok, err := r.Delete("empty"); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, _ := r.Delete("empty"); ok {
		t.Fatal("double delete succeeded")
	}
	if _, ok := r.Get("empty"); ok {
		t.Fatal("deleted dataset still resolvable")
	}
}

// TestRegistryUIDsNeverReused: a deleted-then-recreated name must get a
// fresh uid, or stale cache entries could alias the new dataset.
func TestRegistryUIDsNeverReused(t *testing.T) {
	r := NewRegistry(1)
	e1, _ := r.Create("d", strings.NewReader(testTSV))
	r.Delete("d")
	e2, _ := r.Create("d", strings.NewReader(testTSV))
	if e1.uid == e2.uid {
		t.Fatalf("uid %d reused", e1.uid)
	}
}

func TestIngestVersionsAndSnapshotIsolation(t *testing.T) {
	r := NewRegistry(1)
	e, err := r.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}
	snap1 := e.Snapshot()

	v, err := e.Ingest([]Observation{
		{Source: "s3", Object: "o3", Property: "temp", Value: num(30)},
		{Source: "s3", Object: "o3", Property: "cond", Value: str("hail")},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}

	// The old snapshot must be completely unaffected by the ingest.
	if snap1.Version != 1 || snap1.Data.NumSources() != 2 || snap1.Data.NumObjects() != 2 {
		t.Fatalf("old snapshot mutated: %d sources, %d objects", snap1.Data.NumSources(), snap1.Data.NumObjects())
	}
	snap2 := e.Snapshot()
	if snap2.Version != 2 || snap2.Data.NumSources() != 3 || snap2.Data.NumObjects() != 3 {
		t.Fatalf("new snapshot wrong: %+v", snap2.Data)
	}
	if err := snap2.Data.Validate(); err != nil {
		t.Fatalf("rebuilt dataset invalid: %v", err)
	}
	// Ground truth survives the ingest.
	if !snap2.HasTruth {
		t.Fatal("ground truth lost after ingest")
	}

	// The rebuilt dataset must match a one-shot build of the same data.
	b := data.NewBuilder()
	for _, ln := range []struct {
		src, obj, prop string
		f              float64
		cat            string
		isCat          bool
	}{
		{"s1", "o1", "temp", 10, "", false},
		{"s2", "o1", "temp", 12, "", false},
		{"s1", "o1", "cond", 0, "sunny", true},
		{"s2", "o1", "cond", 0, "sunny", true},
		{"s1", "o2", "temp", 20, "", false},
		{"s2", "o2", "temp", 26, "", false},
		{"s1", "o2", "cond", 0, "rain", true},
		{"s2", "o2", "cond", 0, "snow", true},
		{"s3", "o3", "temp", 30, "", false},
		{"s3", "o3", "cond", 0, "hail", true},
	} {
		if ln.isCat {
			if err := b.ObserveCat(ln.src, ln.obj, ln.prop, ln.cat); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := b.ObserveFloat(ln.src, ln.obj, ln.prop, ln.f); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := core.Run(b.Build(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(snap2.Data, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Weights) != len(got.Weights) {
		t.Fatalf("weight count %d vs %d", len(got.Weights), len(want.Weights))
	}
	for k := range want.Weights {
		if want.Weights[k] != got.Weights[k] {
			t.Fatalf("weight %d: %v vs %v", k, got.Weights[k], want.Weights[k])
		}
	}
}

func TestIngestRejectsAtomically(t *testing.T) {
	r := NewRegistry(1)
	e, _ := r.Create("d", strings.NewReader(testTSV))

	// want, when set, is the whole error text: type conflicts name the
	// property types as data.Type prints them.
	cases := []struct {
		name  string
		batch []Observation
		want  string
	}{
		{"empty batch", nil, ""},
		{"missing names", []Observation{{Source: "", Object: "o", Property: "p", Value: num(1)}}, ""},
		{"type conflict with committed prop", []Observation{
			{Source: "s1", Object: "o9", Property: "cond", Value: num(3)},
		}, `observation 0: property "cond" is categorical, got continuous value`},
		{"type conflict within batch", []Observation{
			{Source: "s1", Object: "o9", Property: "newp", Value: num(3)},
			{Source: "s2", Object: "o9", Property: "newp", Value: str("x")},
		}, `observation 1: property "newp" is continuous, got categorical value`},
		{"bad value", []Observation{{Source: "s1", Object: "o9", Property: "temp", Value: json.RawMessage(`[1]`)}}, ""},
		{"valid then invalid leaves no trace", []Observation{
			{Source: "sZ", Object: "oZ", Property: "temp", Value: num(1)},
			{Source: "s1", Object: "o9", Property: "cond", Value: num(3)},
		}, ""},
	}
	for _, tc := range cases {
		_, err := e.Ingest(tc.batch, nil)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if tc.want != "" && err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
	// Nothing may have leaked from the rejected batches.
	snap := e.Snapshot()
	if snap.Version != 1 {
		t.Fatalf("version advanced to %d by rejected batches", snap.Version)
	}
	if snap.Data.NumSources() != 2 || snap.Data.NumObjects() != 2 || snap.Data.NumProps() != 2 {
		t.Fatalf("rejected batch mutated dataset: %+v", e.Info())
	}
	if _, _, _, chunks := e.WarmState(); chunks != 0 {
		t.Fatalf("rejected batches advanced I-CRH state: %d chunks", chunks)
	}
}

// TestWarmStateMatchesDirectProcessor drives the same batches through the
// registry and through a hand-held stream.Processor and demands identical
// warm weights and truths.
func TestWarmStateMatchesDirectProcessor(t *testing.T) {
	r := NewRegistry(0.8)
	e, err := r.Create("d", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}

	batches := [][]Observation{
		{
			{Source: "s1", Object: "o1", Property: "temp", Value: num(10)},
			{Source: "s2", Object: "o1", Property: "temp", Value: num(14)},
			{Source: "s3", Object: "o1", Property: "temp", Value: num(10.5)},
		},
		{
			{Source: "s1", Object: "o2", Property: "temp", Value: num(20)},
			{Source: "s2", Object: "o2", Property: "temp", Value: num(29)},
			{Source: "s3", Object: "o2", Property: "temp", Value: num(20.5)},
			{Source: "s1", Object: "o2", Property: "cond", Value: str("rain")},
			{Source: "s2", Object: "o2", Property: "cond", Value: str("snow")},
			{Source: "s3", Object: "o2", Property: "cond", Value: str("rain")},
		},
	}
	for _, b := range batches {
		if _, err := e.Ingest(b, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Reference: the documented manual streaming flow over the same
	// chunks, with all sources (and both properties, from the second
	// chunk on) interned up front in the registry's global order.
	proc := stream.NewProcessor(0, stream.Config{Decay: 0.8, DecaySet: true})
	chunk1 := data.NewBuilder()
	chunk1.Source("s1")
	chunk1.Source("s2")
	chunk1.Source("s3")
	chunk1.MustProperty("temp", data.Continuous)
	for src, v := range map[string]float64{"s1": 10, "s2": 14, "s3": 10.5} {
		if err := chunk1.ObserveFloat(src, "o1", "temp", v); err != nil {
			t.Fatal(err)
		}
	}
	proc.Process(chunk1.Build())
	chunk2 := data.NewBuilder()
	chunk2.Source("s1")
	chunk2.Source("s2")
	chunk2.Source("s3")
	chunk2.MustProperty("temp", data.Continuous)
	chunk2.MustProperty("cond", data.Categorical)
	for src, v := range map[string]float64{"s1": 20, "s2": 29, "s3": 20.5} {
		if err := chunk2.ObserveFloat(src, "o2", "temp", v); err != nil {
			t.Fatal(err)
		}
	}
	for src, v := range map[string]string{"s1": "rain", "s2": "snow", "s3": "rain"} {
		if err := chunk2.ObserveCat(src, "o2", "cond", v); err != nil {
			t.Fatal(err)
		}
	}
	proc.Process(chunk2.Build())

	_, _, weights, chunks := e.WarmState()
	if chunks != 2 {
		t.Fatalf("chunks = %d, want 2", chunks)
	}
	ref := proc.Weights()
	for k, name := range []string{"s1", "s2", "s3"} {
		if weights[name] != ref[k] {
			t.Errorf("warm weight %s = %v, want %v", name, weights[name], ref[k])
		}
	}

	_, truths, _, _ := e.WarmState()
	byKey := map[string]TruthValue{}
	for _, tr := range truths {
		byKey[tr.Object+"/"+tr.Property] = tr.Value
	}
	if v := byKey["o2/cond"]; !v.IsCat || v.Cat != "rain" {
		t.Errorf("warm truth o2/cond = %+v, want rain", v)
	}
	if v := byKey["o1/temp"]; v.IsCat || v.F < 10 || v.F > 14 {
		t.Errorf("warm truth o1/temp = %+v", v)
	}
}

// TestConcurrentIngestAndResolve exercises the copy-on-write contract
// under -race: resolves on pinned snapshots proceed while ingest installs
// new versions.
func TestConcurrentIngestAndResolve(t *testing.T) {
	r := NewRegistry(1)
	e, err := r.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, rounds = 2, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				obj := "w" + string(rune('A'+w)) + "-" + string(rune('a'+i%26))
				_, err := e.Ingest([]Observation{
					{Source: "s1", Object: obj, Property: "temp", Value: num(float64(i))},
					{Source: "s2", Object: obj, Property: "temp", Value: num(float64(i + 1))},
					// A new category every round: readers of earlier
					// snapshots must never see the log's dictionary grow.
					{Source: "s2", Object: obj, Property: "cond", Value: str(obj)},
				}, nil)
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := e.Snapshot()
				if _, err := core.Run(snap.Data, core.Config{}); err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				for m := 0; m < snap.Data.NumProps(); m++ {
					p := snap.Data.Prop(m)
					for c := 0; c < p.NumCats(); c++ {
						if id, ok := p.CatID(p.CatName(c)); !ok || id != c {
							t.Errorf("version %d: category %d of %s resolves to %d, %v", snap.Version, c, p.Name, id, ok)
							return
						}
					}
				}
				if _, _, _, chunks := e.WarmState(); chunks < 0 {
					t.Error("negative chunks")
					return
				}
			}
		}()
	}
	wg.Wait()

	snap := e.Snapshot()
	if want := int64(1 + writers*rounds); snap.Version != want {
		t.Fatalf("final version = %d, want %d", snap.Version, want)
	}
	if err := snap.Data.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWarmStateVersion is the torn-read regression test for
// the incremental endpoint: version and warm state must come from one
// atomic read. The invariant version == chunks+1 holds at every instant
// (1 at create, both advance together under warmMu per ingest); the old
// code read e.Snapshot().Version separately from WarmState, so under
// -race-with-ingest it could pair a new version with old truths and
// break the invariant. Run under make racehammer.
func TestConcurrentWarmStateVersion(t *testing.T) {
	r := NewRegistry(1)
	e, err := r.Create("d", strings.NewReader(testTSV))
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			_, err := e.Ingest([]Observation{
				{Source: "s1", Object: "o1", Property: "temp", Value: num(float64(i))},
			}, nil)
			if err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				version, truths, weights, chunks := e.WarmState()
				if version != int64(chunks)+1 {
					t.Errorf("torn read: version %d with %d chunks (want version == chunks+1)", version, chunks)
					return
				}
				if chunks > 0 && (len(truths) == 0 || len(weights) == 0) {
					t.Errorf("version %d reports %d chunks but empty state", version, chunks)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	version, _, _, chunks := e.WarmState()
	if version != int64(rounds)+1 || chunks != rounds {
		t.Fatalf("final warm state: version %d chunks %d, want %d/%d", version, chunks, rounds+1, rounds)
	}
}
