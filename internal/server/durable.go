package server

import (
	"fmt"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/stream"
	"github.com/crhkit/crh/internal/wal"
)

// This file is the bridge between the registry's in-memory model and the
// durable store in internal/wal: type conversions, snapshot capture, and
// boot-time recovery. The recovery contract is exact — a recovered entry
// is bit-for-bit identical (snapshot data, warm truths, source weights)
// to the entry the crashed process held at the last acknowledged version,
// because the checkpoint's warm state is indexed like the recovered
// snapshot and replayed WAL batches flow through the same entry.apply
// path as live ingest (docs/DURABILITY.md).

func kindOf(t data.Type) wal.Kind {
	if t == data.Categorical {
		return wal.Categorical
	}
	return wal.Continuous
}

func typeOf(k wal.Kind) data.Type {
	if k == wal.Categorical {
		return data.Categorical
	}
	return data.Continuous
}

// walObs regenerates the log's claims as name-keyed WAL observations, in
// log order: the claims the log was fed, upload and batches alike.
func (l *claimLog) walObs() []wal.Obs {
	b := l.b
	out := make([]wal.Obs, b.NumRows())
	for i := range out {
		src, obj, m, v := b.Row(i)
		p := b.Prop(m)
		o := wal.Obs{
			Source:   b.SourceName(src),
			Object:   b.ObjectName(obj),
			Property: p.Name,
			Kind:     kindOf(p.Type),
			TS:       l.stamps[i].ts,
			HasTS:    l.stamps[i].ok,
		}
		if p.Type == data.Categorical {
			o.Cat = p.CatName(int(v.C))
		} else {
			o.F = v.F
		}
		out[i] = o
	}
	return out
}

// walSnapshot captures the entry's full durable state at its current
// version: interning orders (sources, properties), the claim log, ground
// truth, I-CRH processor state, and the current snapshot's warm truths.
// l is e.log; the caller holds e.mu or owns e.
func (e *entry) walSnapshot(l *claimLog) *wal.Snapshot {
	snap := e.snap.Load()
	s := &wal.Snapshot{
		Version: snap.Version,
		Sources: make([]string, l.b.NumSources()),
		Props:   make([]wal.Prop, l.b.NumProps()),
		Obs:     l.walObs(),
		GT:      e.gt,
	}
	for k := range s.Sources {
		s.Sources[k] = l.b.SourceName(k)
	}
	for m := range s.Props {
		p := l.b.Prop(m)
		s.Props[m] = wal.Prop{Name: p.Name, Kind: kindOf(p.Type)}
	}
	s.Weights, s.Accum, s.Chunks = e.proc.State()
	snap.eachWarm(func(object, property string, v TruthValue) {
		w := wal.Truth{Object: object, Property: property, Kind: wal.Continuous, F: v.F, Cat: v.Cat}
		if v.IsCat {
			w.Kind = wal.Categorical
		}
		s.Warm = append(s.Warm, w)
	})
	return s
}

// EnableDurability attaches a durable store to the registry and recovers
// every dataset it holds: each is rebuilt from its newest valid snapshot,
// then WAL batches past the snapshot are replayed through the normal
// ingest apply path, leaving the entry exactly at its pre-crash version.
// Must be called once, before the registry is shared; the registry must
// be empty. snapshotEvery is the batch cadence for checkpointing (a
// snapshot every N ingested batches retires the WAL segments it covers).
func (r *Registry) EnableDurability(store *wal.Store, snapshotEvery int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) != 0 {
		return fmt.Errorf("wal: EnableDurability on a non-empty registry")
	}
	r.store = store
	r.snapshotEvery = snapshotEvery

	names, err := store.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		e, err := r.recoverDataset(name)
		if err != nil {
			return fmt.Errorf("recover dataset %q: %w", name, err)
		}
		r.entries[name] = e
	}
	return nil
}

// recoverDataset rebuilds one dataset from its on-disk state. Caller
// holds r.mu.
func (r *Registry) recoverDataset(name string) (*entry, error) {
	dl, snap, batches, err := r.store.Open(name)
	if err != nil {
		return nil, err
	}
	e := &entry{
		name:      name,
		log:       newClaimLog(),
		snapEvery: r.snapshotEvery,
		lastSnap:  snap.Version,
	}
	// Interning orders must be restored exactly as captured — the I-CRH
	// weight vector is positional, and snapshots and chunks emit sources
	// and properties in interning order. The claims then take the ingest
	// append path, which interns objects and categories in log order.
	for _, s := range snap.Sources {
		e.log.b.Source(s)
	}
	for _, p := range snap.Props {
		e.log.b.MustProperty(p.Name, typeOf(p.Kind))
	}
	e.log.add(snap.Obs)
	e.gt = snap.GT
	e.proc = stream.NewProcessor(len(snap.Sources), r.streamCfg)
	e.proc.Restore(snap.Weights, snap.Accum, snap.Chunks)
	s := &Snapshot{Version: snap.Version, Data: e.log.b.Build(), HasTruth: len(e.gt) > 0, chunks: snap.Chunks}
	if snap.Chunks > 0 {
		if s.warm, err = e.log.warmTable(s.Data, snap.Warm); err != nil {
			//lint:ignore errflow the corruption error below supersedes any close failure on the bail-out path
			_ = dl.Close()
			return nil, err
		}
		s.weights = snap.Weights
	}
	e.snap.Store(s)

	for _, b := range batches {
		want := e.snap.Load().Version + 1
		if b.Version != want {
			//lint:ignore errflow the corruption error below supersedes any close failure on the bail-out path
			_ = dl.Close()
			return nil, fmt.Errorf("%w: WAL batch version %d, want %d", wal.ErrCorrupt, b.Version, want)
		}
		e.apply(e.log, b.Obs, b.Version, nil)
	}
	e.dlog = dl
	return e, nil
}

// FlushDurable fsyncs every dataset's WAL, regardless of fsync policy —
// making lazily-synced (interval/off) writes durable without closing
// anything.
func (r *Registry) FlushDurable() error {
	var firstErr error
	r.eachDurable(func(e *entry) {
		if err := e.dlog.Sync(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("flush %q: %w", e.name, err)
		}
	})
	return firstErr
}

// CloseDurable flushes and closes every dataset's WAL — the graceful-
// shutdown path. The entries stay registered (the process is exiting);
// ingest after CloseDurable would fail its durable append. The first
// close failure is returned: a failed final fsync means the tail of the
// log may not have reached stable storage, and shutdown must say so.
func (r *Registry) CloseDurable() error {
	var firstErr error
	r.eachDurable(func(e *entry) {
		if err := e.dlog.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("close %q: %w", e.name, err)
		}
		e.dlog = nil
	})
	return firstErr
}

// eachDurable runs f under e.mu for every entry with a WAL handle, in
// name order.
func (r *Registry) eachDurable(f func(e *entry)) {
	for _, e := range r.sorted() {
		e.mu.Lock()
		if e.dlog != nil {
			f(e)
		}
		e.mu.Unlock()
	}
}

// warmTable indexes a checkpoint's warm truths, recorded by name, like
// d, the log's build at the checkpoint. A truth naming an entry or a
// category d lacks is corruption.
func (l *claimLog) warmTable(d *data.Dataset, recs []wal.Truth) (*data.Table, error) {
	t := data.NewTableFor(d)
	for _, w := range recs {
		m, ok := l.b.PropertyIndex(w.Property)
		i := l.b.Object(w.Object)
		v := data.Float(w.F)
		if ok && w.Kind == wal.Categorical {
			var c int
			c, ok = d.Prop(m).CatID(w.Cat)
			v = data.Cat(c)
		}
		if !ok || i >= d.NumObjects() || d.Prop(m).Type != typeOf(w.Kind) {
			return nil, fmt.Errorf("%w: warm truth for unknown entry %s/%s", wal.ErrCorrupt, w.Object, w.Property)
		}
		t.SetAt(i, m, v)
	}
	return t, nil
}
