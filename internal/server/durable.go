package server

import (
	"fmt"
	"sort"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/stream"
	"github.com/crhkit/crh/internal/wal"
)

// This file is the bridge between the registry's in-memory model and the
// durable store in internal/wal: type conversions, snapshot capture, and
// boot-time recovery. The recovery contract is exact — a recovered entry
// is bit-for-bit identical (snapshot data, warm truths, source weights)
// to the entry the crashed process held at the last acknowledged version,
// because replayed WAL batches flow through the same entry.apply path as
// live ingest (docs/DURABILITY.md).

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

func recsToWAL(recs []obsRec) []wal.Obs {
	out := make([]wal.Obs, len(recs))
	for i, r := range recs {
		out[i] = wal.Obs{
			Source:   r.src,
			Object:   r.obj,
			Property: r.prop,
			Kind:     kindOf(r.typ),
			F:        r.f,
			Cat:      r.cat,
			TS:       r.ts,
			HasTS:    r.hasTS,
		}
	}
	return out
}

func walToRecs(obs []wal.Obs) []obsRec {
	out := make([]obsRec, len(obs))
	for i, o := range obs {
		out[i] = obsRec{
			src:   o.Source,
			obj:   o.Object,
			prop:  o.Property,
			typ:   typeOf(o.Kind),
			f:     o.F,
			cat:   o.Cat,
			ts:    o.TS,
			hasTS: o.HasTS,
		}
	}
	return out
}

// walObs regenerates the log's claims as name-keyed WAL observations, in
// log order: the list recsToWAL made of the records the log was fed.
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

// walSnapshot captures the entry's full durable state at the given
// version: interning orders (sources, properties), the claim log, ground
// truth, I-CRH processor state, and the warm truth table. l is e.log;
// the caller holds e.mu or owns e.
func (e *entry) walSnapshot(l *claimLog, version int64) *wal.Snapshot {
	s := &wal.Snapshot{
		Version: version,
		Sources: l.sourceNames(),
		Props:   make([]wal.Prop, l.b.NumProps()),
		Obs:     l.walObs(),
		GT:      make([]wal.Truth, len(e.gt)),
	}
	for m := range s.Props {
		p := l.b.Prop(m)
		s.Props[m] = wal.Prop{Name: p.Name, Kind: kindOf(p.Type)}
	}
	for i, g := range e.gt {
		s.GT[i] = wal.Truth{Object: g.obj, Property: g.prop, Kind: kindOf(g.typ), F: g.f, Cat: g.cat}
	}
	s.Weights, s.Accum, s.Chunks = e.proc.State()

	e.warmMu.RLock()
	s.Warm = make([]wal.Truth, 0, len(e.warmTruths))
	for k, v := range e.warmTruths {
		s.Warm = append(s.Warm, wal.Truth{
			Object:   k.obj,
			Property: k.prop,
			Kind:     kindOf(v.typ),
			F:        v.f,
			Cat:      v.cat,
		})
	}
	e.warmMu.RUnlock()
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
		name:       name,
		uid:        r.nextUID.Add(1),
		log:        newClaimLog(),
		warmTruths: make(map[warmKey]warmVal),
		snapEvery:  r.snapshotEvery,
		lastSnap:   snap.Version,
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
	e.log.add(walToRecs(snap.Obs))
	e.gt = make([]gtRec, len(snap.GT))
	for i, g := range snap.GT {
		e.gt[i] = gtRec{obj: g.Object, prop: g.Property, typ: typeOf(g.Kind), f: g.F, cat: g.Cat}
	}
	e.proc = stream.NewProcessor(len(snap.Sources), r.streamCfg)
	e.proc.Restore(snap.Weights, snap.Accum, snap.Chunks)
	if snap.Chunks > 0 {
		for _, w := range snap.Warm {
			e.warmTruths[warmKey{w.Object, w.Property}] = warmVal{typ: typeOf(w.Kind), f: w.F, cat: w.Cat}
		}
		e.warmWeights = append([]float64(nil), snap.Weights...)
		e.warmSources = e.log.sourceNames()
		e.chunks = snap.Chunks
	}
	e.warmVersion = snap.Version // not yet published; no lock needed
	e.publish(e.log, snap.Version)

	for _, b := range batches {
		want := e.snap.Load().Version + 1
		if b.Version != want {
			//lint:ignore errflow the corruption error below supersedes any close failure on the bail-out path
			_ = dl.Close()
			return nil, fmt.Errorf("%w: WAL batch version %d, want %d", wal.ErrCorrupt, b.Version, want)
		}
		e.apply(e.log, walToRecs(b.Obs), b.Version, nil)
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
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		e.mu.Lock()
		if e.dlog != nil {
			f(e)
		}
		e.mu.Unlock()
	}
}
