// Package server implements crhd's HTTP subsystem: a concurrent,
// versioned dataset registry with copy-on-write snapshots, resolve
// request coalescing, an LRU result cache, live ingest driving warm
// incremental CRH (I-CRH) state, and hand-rolled operational stats.
// Everything is standard library only.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/stream"
	"github.com/crhkit/crh/internal/wal"
)

// Snapshot is an immutable view of a dataset at one version. Resolves
// operate on snapshots, so they never block — and are never blocked by —
// concurrent ingest, which installs a fresh snapshot atomically.
type Snapshot struct {
	// Version counts mutations: 1 after create, +1 per ingested batch.
	Version int64
	// Data is the materialized dataset. Immutable.
	Data *data.Dataset
	// HasTruth reports whether a ground truth was uploaded with the
	// dataset.
	HasTruth bool

	// prepared lazily computes Data's solver statistics on the first
	// CRH resolve and shares them with every later resolve of this
	// snapshot — preparation is paid once per ingested version, not once
	// per request.
	prepOnce sync.Once
	prepared *core.Prepared
}

// Prepared returns the snapshot's prepared solver view, building it on
// first use. Safe for concurrent resolves: core.Prepared is immutable.
func (s *Snapshot) Prepared() *core.Prepared {
	s.prepOnce.Do(func() { s.prepared = core.Prepare(s.Data) })
	return s.prepared
}

// stamp is one logged claim's timestamp, if it carried one. The builder
// keeps only each object's latest timestamp; checkpoints need every
// claim's own.
type stamp struct {
	ts int
	ok bool
}

// claimLog is a dataset's append-only claim log, interned. One
// long-lived data.Builder holds the name tables (sources, properties,
// objects and each property's categories, all in first-mention order)
// and one row per claim; stamps[i] is row i's timestamp. Appending a
// batch hashes only that batch's names, and a version's snapshot is one
// Build, which shares nothing mutable with the log.
type claimLog struct {
	b      *data.Builder
	stamps []stamp
}

func newClaimLog() *claimLog { return &claimLog{b: data.NewBuilder()} }

// entry is one named dataset. Two lock domains keep resolves wait-free
// with respect to ingest:
//
//   - mu serializes mutations (ingest, which appends to the claim log,
//     builds the new snapshot, and advances the I-CRH processor).
//     Resolves never acquire it.
//   - snap is the copy-on-write snapshot pointer resolves read.
//   - warmMu guards the warm incremental truths/weights, written briefly
//     at the end of each ingest and read by the incremental endpoint.
type entry struct {
	name string
	// uid is unique across all datasets ever created by this registry, so
	// cache keys of a deleted-then-recreated name can never collide.
	uid int64

	mu sync.Mutex
	// log is the interned claim log. Methods that run under mu take it
	// as a parameter, read from e.log by a caller that holds mu or owns
	// a not yet published entry.
	// crh:guardedby mu
	log *claimLog
	// gt is the ground truth uploaded at create, by name, kept for WAL
	// checkpoints; nil when none.
	gt   []wal.Truth
	proc *stream.Processor
	// deleted marks an entry removed from the registry; ingest on a
	// stale handle must not resurrect it (or its on-disk state).
	// crh:guardedby mu
	deleted bool
	// dlog is the durable WAL+snapshot handle, nil in memory-only mode.
	// lastSnap is the version of the newest on-disk snapshot and
	// snapEvery the batch cadence for writing the next one.
	dlog      *wal.DatasetLog
	lastSnap  int64 // see dlog
	snapEvery int   // see dlog

	snap atomic.Pointer[Snapshot]

	warmMu sync.RWMutex
	// crh:guardedby warmMu
	warmTruths map[warmKey]warmVal
	// crh:guardedby warmMu
	warmWeights []float64
	// copy of sources, aligned with warmWeights
	// crh:guardedby warmMu
	warmSources []string
	// crh:guardedby warmMu
	chunks int
	// warmVersion is the snapshot version the warm state corresponds to,
	// recorded in the same critical section that installs the state so
	// WarmState can return both atomically (always chunks+1 in steady
	// state: version 1 at create, +1 per ingested chunk).
	// crh:guardedby warmMu
	warmVersion int64
}

type warmKey struct{ obj, prop string }

type warmVal struct {
	typ data.Type
	f   float64
	cat string
}

// Snapshot returns the entry's current immutable snapshot.
func (e *entry) Snapshot() *Snapshot { return e.snap.Load() }

// Registry is the concurrent named-dataset store. All methods are safe
// for concurrent use.
type Registry struct {
	mu sync.RWMutex
	// crh:guardedby mu
	entries   map[string]*entry
	nextUID   atomic.Int64
	streamCfg stream.Config
	// store is the durability backend, nil in memory-only mode;
	// snapshotEvery the batch cadence entries snapshot at.
	store         *wal.Store
	snapshotEvery int // see store
}

// NewRegistry returns an empty registry. decay is the I-CRH decay rate α
// applied to warm incremental state (1 retains all history).
func NewRegistry(decay float64) *Registry {
	return &Registry{
		entries:   make(map[string]*entry),
		streamCfg: stream.Config{Decay: decay, DecaySet: true},
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Errors distinguished by the HTTP layer.
var (
	errExists   = fmt.Errorf("dataset already exists")
	errNotFound = fmt.Errorf("dataset not found")
	errBadName  = fmt.Errorf("invalid dataset name (want [A-Za-z0-9][A-Za-z0-9._-]{0,127})")
	// errDurable wraps WAL/snapshot failures: the request was valid but
	// could not be made durable, so it was not applied.
	errDurable = fmt.Errorf("durable commit failed")
	// errInternal marks a broken server-side invariant (a method returning
	// malformed results); the request was fine, the server is not.
	errInternal = fmt.Errorf("internal error")
)

// Create registers a new dataset under name, loading its initial contents
// from the TSV codec stream r (which may be empty for a blank dataset).
// In durable mode the dataset's on-disk state (initial snapshot + WAL) is
// created atomically before the name becomes visible.
func (r *Registry) Create(name string, src io.Reader) (*entry, error) {
	if !nameRe.MatchString(name) {
		return nil, errBadName
	}
	r.mu.RLock()
	_, taken := r.entries[name]
	r.mu.RUnlock()
	if taken {
		return nil, errExists
	}
	d, gt, err := data.Decode(src)
	if err != nil {
		return nil, err
	}
	e := &entry{
		name:       name,
		uid:        r.nextUID.Add(1),
		log:        newClaimLog(),
		gt:         truthRecs(d, gt),
		warmTruths: make(map[warmKey]warmVal),
		proc:       stream.NewProcessor(d.NumSources(), r.streamCfg),
		snapEvery:  r.snapshotEvery,
	}
	e.log.absorb(d)
	e.publish(e.log, 1)
	e.warmVersion = 1 // not yet published; no lock needed

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return nil, errExists
	}
	if r.store != nil {
		dl, err := r.store.Create(name, e.walSnapshot(e.log, 1))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errDurable, err)
		}
		e.dlog = dl
		e.lastSnap = 1
	}
	r.entries[name] = e
	return e, nil
}

// truthRecs flattens an uploaded ground truth (nil when none) by name.
func truthRecs(d *data.Dataset, gt *data.Table) []wal.Truth {
	if gt == nil {
		return nil
	}
	var out []wal.Truth
	for i := 0; i < d.NumObjects(); i++ {
		for m := 0; m < d.NumProps(); m++ {
			v, ok := gt.Get(d.Entry(i, m))
			if !ok {
				continue
			}
			p := d.Prop(m)
			g := wal.Truth{Object: d.ObjectName(i), Property: p.Name, Kind: kindOf(p.Type)}
			if p.Type == data.Categorical {
				g.Cat = p.CatName(int(v.C))
			} else {
				g.F = v.F
			}
			out = append(out, g)
		}
	}
	return out
}

// absorb appends a decoded upload: every source and property first,
// claimless ones included, then object by object, property by property,
// each entry's claims in source order. Objects and categories intern at
// their first claim, so ones only the ground truth names stay out.
func (l *claimLog) absorb(d *data.Dataset) {
	b := l.b
	b.Grow(d.NumObservations())
	l.stamps = slices.Grow(l.stamps, d.NumObservations())
	srcID := make([]int, d.NumSources())
	for k := range srcID {
		srcID[k] = b.Source(d.SourceName(k))
	}
	propID := make([]int, d.NumProps())
	for m := range propID {
		propID[m] = b.MustProperty(d.Prop(m).Name, d.Prop(m).Type)
	}
	for i := 0; i < d.NumObjects(); i++ {
		st := stamp{ts: d.Timestamp(i), ok: d.HasTimestamps()}
		obj := -1
		for m := 0; m < d.NumProps(); m++ {
			p, pid := d.Prop(m), propID[m]
			d.ForEntry(d.Entry(i, m), func(k int, v data.Value) {
				if obj < 0 {
					obj = b.Object(d.ObjectName(i))
					if st.ok {
						b.SetTimestampIdx(obj, st.ts)
					}
				}
				if p.Type == data.Categorical {
					v = data.Cat(b.CatValue(pid, p.CatName(int(v.C))))
				}
				b.ObserveIdx(srcID[k], obj, pid, v)
				l.stamps = append(l.stamps, st)
			})
		}
	}
}

// add interns a validated batch's names and appends its rows. The batch
// passed validateBatch and checkTypes, so no property changes type.
func (l *claimLog) add(batch []wal.Obs) {
	b := l.b
	for _, o := range batch {
		src := b.Source(o.Source)
		pid := b.MustProperty(o.Property, typeOf(o.Kind))
		obj := b.Object(o.Object)
		if o.HasTS {
			b.SetTimestampIdx(obj, o.TS)
		}
		v := data.Float(o.F)
		if o.Kind == wal.Categorical {
			v = data.Cat(b.CatValue(pid, o.Cat))
		}
		b.ObserveIdx(src, obj, pid, v)
		l.stamps = append(l.stamps, stamp{ts: o.TS, ok: o.HasTS})
	}
}

// sourceNames returns the interned source names in interning order,
// which is the order of the I-CRH processor's weight vector.
func (l *claimLog) sourceNames() []string {
	out := make([]string, l.b.NumSources())
	for k := range out {
		out[k] = l.b.SourceName(k)
	}
	return out
}

// publish installs the log's current contents as the snapshot at
// version. l is e.log; the caller holds e.mu or owns e.
func (e *entry) publish(l *claimLog, version int64) {
	e.snap.Store(&Snapshot{Version: version, Data: l.b.Build(), HasTruth: len(e.gt) > 0})
}

// Observation is one ingested observation, as posted to
// POST /v1/datasets/{name}/observations. Value must be a JSON number
// (continuous) or string (categorical); the property's type is inferred
// on first mention and enforced thereafter.
type Observation struct {
	// Source names the claiming source; Object and Property name the
	// entry it claims about; Value carries the claimed value.
	Source   string          `json:"source"`
	Object   string          `json:"object"`   // see Source
	Property string          `json:"property"` // see Source
	Value    json.RawMessage `json:"value"`    // see Source
	// Timestamp optionally places the observation's object on the I-CRH
	// timeline; when omitted the batch sequence number is used for the
	// incremental chunk and no timestamp is recorded on the dataset.
	Timestamp *int `json:"timestamp,omitempty"`
}

// Ingest validates and appends a batch of observations, installs a new
// snapshot, and advances the warm I-CRH state by processing the batch as
// one chunk. The batch is atomic: any invalid observation rejects the
// whole batch before any state changes. In durable mode the batch is
// appended to the WAL before it is applied — a request is only
// acknowledged once it would survive a crash — and every snapEvery
// batches the entry checkpoints a snapshot, retiring covered WAL
// segments. Returns the new version.
//
// sp, which may be nil, receives the validate, wal, apply and icrh
// stages; validate includes the wait for the entry's lock.
func (e *entry) Ingest(batch []Observation, sp *obs.Span) (int64, error) {
	claims, err := validateBatch(batch)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return 0, errNotFound
	}
	if err := e.log.checkTypes(claims); err != nil {
		return 0, err
	}
	sp.Mark(ingestValidate)
	version := e.snap.Load().Version + 1
	if e.dlog != nil {
		if err := e.dlog.AppendBatch(version, claims); err != nil {
			return 0, fmt.Errorf("%w: %v", errDurable, err)
		}
		sp.Mark(ingestWAL)
	}
	e.apply(e.log, claims, version, sp)
	if e.dlog != nil && e.snapEvery > 0 && version-e.lastSnap >= int64(e.snapEvery) {
		// Snapshot failure is non-fatal: the batch is already durable in
		// the WAL, the checkpoint just retries at the next boundary.
		if err := e.dlog.WriteSnapshot(e.walSnapshot(e.log, version)); err == nil {
			e.lastSnap = version
		}
		sp.Mark(ingestWAL)
	}
	return version, nil
}

// validateBatch performs the lock-free part of ingest validation: shape,
// value typing, and intra-batch property-type consistency. It returns
// the batch as the claims the WAL logs and the claim log appends.
// Cross-checking against the log's committed property types happens
// under e.mu in claimLog.checkTypes.
func validateBatch(batch []Observation) ([]wal.Obs, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("empty observation batch")
	}
	staged := make(map[string]wal.Kind)
	claims := make([]wal.Obs, 0, len(batch))
	for i, o := range batch {
		if o.Source == "" || o.Object == "" || o.Property == "" {
			return nil, fmt.Errorf("observation %d: source, object and property are required", i)
		}
		c := wal.Obs{Source: o.Source, Object: o.Object, Property: o.Property}
		var f float64
		var s string
		if err := json.Unmarshal(o.Value, &f); err == nil {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("observation %d: non-finite value", i)
			}
			c.Kind, c.F = wal.Continuous, f
		} else if err := json.Unmarshal(o.Value, &s); err == nil {
			c.Kind, c.Cat = wal.Categorical, s
		} else {
			return nil, fmt.Errorf("observation %d: value must be a JSON number (continuous) or string (categorical)", i)
		}
		if want, known := staged[c.Property]; known && want != c.Kind {
			return nil, fmt.Errorf("observation %d: property %q is %v, got %v value", i, c.Property, typeOf(want), typeOf(c.Kind))
		}
		staged[c.Property] = c.Kind
		if o.Timestamp != nil {
			c.TS, c.HasTS = *o.Timestamp, true
		}
		claims = append(claims, c)
	}
	return claims, nil
}

// checkTypes rejects a batch whose property types conflict with the
// log's committed declarations.
func (l *claimLog) checkTypes(batch []wal.Obs) error {
	for i, o := range batch {
		if m, known := l.b.PropertyIndex(o.Property); known {
			if want := l.b.Prop(m).Type; want != typeOf(o.Kind) {
				return fmt.Errorf("observation %d: property %q is %v, got %v value", i, o.Property, want, typeOf(o.Kind))
			}
		}
	}
	return nil
}

// apply commits an already-validated batch at the given version: it
// appends the batch to the claim log, installs the new snapshot, and
// advances the incremental processor. This is the single code path for
// both live ingest and WAL replay, which is what makes recovery
// bit-for-bit identical to the uncrashed process. l is e.log; the caller
// holds e.mu or owns e. sp, which may be nil, receives the apply and
// icrh stages.
func (e *entry) apply(l *claimLog, batch []wal.Obs, version int64, sp *obs.Span) {
	l.add(batch)
	e.publish(l, version)
	sp.Mark(ingestApply)

	chunk := l.chunk(batch, int(version))
	truths := e.proc.Process(chunk)
	weights := e.proc.Weights()

	e.warmMu.Lock()
	M := chunk.NumProps()
	for i := 0; i < chunk.NumObjects(); i++ {
		for m := 0; m < M; m++ {
			v, ok := truths.GetAt(i, m)
			if !ok {
				continue
			}
			p := chunk.Prop(m)
			wv := warmVal{typ: p.Type}
			if p.Type == data.Categorical {
				wv.cat = p.CatName(int(v.C))
			} else {
				wv.f = v.F
			}
			e.warmTruths[warmKey{chunk.ObjectName(i), p.Name}] = wv
		}
	}
	e.warmWeights = weights
	e.warmSources = l.sourceNames()
	e.chunks++
	// Recorded inside the same critical section as the truths/weights it
	// describes, so a WarmState reader can never pair this batch's
	// version with an earlier batch's state (or vice versa).
	e.warmVersion = version
	e.warmMu.Unlock()
	sp.Mark(ingestICRH)
}

// chunk materializes the batch as an I-CRH chunk. All sources and
// properties known so far are interned first, in global order, so the
// processor's per-source state stays aligned across chunks (the same
// contract stream.TSVStream documents). defaultTS stamps observations
// that carry no explicit timestamp.
func (l *claimLog) chunk(batch []wal.Obs, defaultTS int) *data.Dataset {
	b := data.NewBuilder()
	for k := 0; k < l.b.NumSources(); k++ {
		b.Source(l.b.SourceName(k))
	}
	for m := 0; m < l.b.NumProps(); m++ {
		p := l.b.Prop(m)
		b.MustProperty(p.Name, p.Type)
	}
	for _, o := range batch {
		obj := b.Object(o.Object)
		ts := defaultTS
		if o.HasTS {
			ts = o.TS
		}
		b.SetTimestampIdx(obj, ts)
		pid := b.MustProperty(o.Property, typeOf(o.Kind))
		v := data.Float(o.F)
		if o.Kind == wal.Categorical {
			v = data.Cat(b.CatValue(pid, o.Cat))
		}
		b.ObserveIdx(b.Source(o.Source), obj, pid, v)
	}
	return b.Build()
}

// WarmState returns the incremental (I-CRH) truths and per-source weights
// accumulated by live ingest, without any recomputation: the values are
// maintained chunk-by-chunk as batches arrive. chunks is the number of
// batches processed and version the snapshot version the state
// corresponds to — returned from the same critical section so callers
// never observe a version newer than the truths it labels. Weights are
// keyed by source name.
func (e *entry) WarmState() (version int64, truths []TruthJSON, weights map[string]float64, chunks int) {
	e.warmMu.RLock()
	defer e.warmMu.RUnlock()
	truths = make([]TruthJSON, 0, len(e.warmTruths))
	for k, v := range e.warmTruths {
		t := TruthJSON{Object: k.obj, Property: k.prop}
		if v.typ == data.Categorical {
			t.Value = TruthValue{IsCat: true, Cat: v.cat}
		} else {
			t.Value = TruthValue{F: v.f}
		}
		truths = append(truths, t)
	}
	sortTruths(truths)
	weights = make(map[string]float64, len(e.warmWeights))
	for k, w := range e.warmWeights {
		if k < len(e.warmSources) {
			weights[e.warmSources[k]] = w
		}
	}
	return e.warmVersion, truths, weights, e.chunks
}

// Count returns the number of registered datasets.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Get returns the entry for name.
func (r *Registry) Get(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Delete removes name from the registry, releases the entry's resources
// (claim log, ground truth, warm I-CRH state, WAL handle), and
// removes its on-disk state in durable mode. Inflight resolves holding
// the entry's snapshot finish unaffected — the snapshot pointer stays
// valid — but later ingest through a stale handle reports not-found.
// The registry lock is held across the disk removal so a racing Create
// of the same name can never observe leftover on-disk state.
func (r *Registry) Delete(name string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return false, nil
	}
	delete(r.entries, name)

	e.mu.Lock()
	e.deleted = true
	e.log, e.gt = nil, nil
	e.proc = nil
	dlog := e.dlog
	e.dlog = nil
	e.mu.Unlock()

	e.warmMu.Lock()
	e.warmTruths = nil
	e.warmWeights, e.warmSources = nil, nil
	e.warmMu.Unlock()

	if dlog != nil {
		//lint:ignore errflow the dataset's on-disk state is removed next; a close failure cannot lose data the Remove keeps
		_ = dlog.Close()
	}
	if r.store != nil {
		if err := r.store.Remove(name); err != nil {
			return true, fmt.Errorf("%w: %v", errDurable, err)
		}
	}
	return true, nil
}

// DatasetInfo is the JSON description of one registered dataset.
type DatasetInfo struct {
	// Name and Version identify the snapshot being described.
	Name    string `json:"name"`
	Version int64  `json:"version"` // see Name
	// Sources, Objects, Properties, and Observations are the snapshot's
	// dimensions.
	Sources      int `json:"sources"`
	Objects      int `json:"objects"`      // see Sources
	Properties   int `json:"properties"`   // see Sources
	Observations int `json:"observations"` // see Sources
	// HasTruth reports whether a ground truth was uploaded with the
	// dataset.
	HasTruth bool `json:"has_ground_truth"`
	// Chunks counts the ingest batches applied since creation.
	Chunks int `json:"chunks_ingested"`
}

// Info describes the entry's current snapshot.
func (e *entry) Info() DatasetInfo {
	s := e.Snapshot()
	e.warmMu.RLock()
	chunks := e.chunks
	e.warmMu.RUnlock()
	return DatasetInfo{
		Name:         e.name,
		Version:      s.Version,
		Sources:      s.Data.NumSources(),
		Objects:      s.Data.NumObjects(),
		Properties:   s.Data.NumProps(),
		Observations: s.Data.NumObservations(),
		HasTruth:     s.HasTruth,
		Chunks:       chunks,
	}
}

// List describes every registered dataset, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	// Sort the entries themselves, not the derived infos: the map-range
	// collection above has no order, and sorting before the reads keeps
	// the whole pipeline order-independent (maporder checks exactly this).
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	infos := make([]DatasetInfo, len(entries))
	for i, e := range entries {
		infos[i] = e.Info()
	}
	return infos
}
