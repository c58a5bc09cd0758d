package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	crh "github.com/crhkit/crh"
	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/stream"
)

// claim is one observation as crhd's per-dataset log holds it.
type claim struct {
	src, obj, prop string
	typ            data.Type
	cat            string
	f              float64
	ts             int
	hasTS          bool
}

type propDecl struct {
	name string
	typ  data.Type
}

// logMark is the log's size at one moment: how many claims, sources and
// properties it held.
type logMark struct{ claims, sources, props int }

// claimLog mirrors the observation log crhd keeps per dataset: sources and
// properties in first-mention order, claims in arrival order. crhd
// rebuilds every snapshot and every I-CRH chunk from this log through a
// fresh data.Builder, so replaying it here reproduces crhd's datasets
// (category dictionaries included) and times the same Builder work.
//
// It is a copy, because the benchmark may not import internal/server: it
// must track entry.absorb, entry.rebuild and buildChunk in
// internal/server/registry.go. When crhd changes how it logs or
// rebuilds, change this copy with it: if the two drift apart, the
// final-state check can fail on a correct crhd (categories intern in a
// different order, so ties break differently) and the data.build
// replays time work crhd no longer does.
type claimLog struct {
	sources []string
	srcSet  map[string]bool
	props   []propDecl
	propSet map[string]bool
	claims  []claim
}

func newClaimLog() *claimLog {
	return &claimLog{srcSet: map[string]bool{}, propSet: map[string]bool{}}
}

func (l *claimLog) internSource(name string) {
	if !l.srcSet[name] {
		l.srcSet[name] = true
		l.sources = append(l.sources, name)
	}
}

func (l *claimLog) internProp(name string, typ data.Type) {
	if !l.propSet[name] {
		l.propSet[name] = true
		l.props = append(l.props, propDecl{name, typ})
	}
}

// absorb appends a decoded upload in the order crhd's create path walks
// it: every source and property first, then object by object, property
// by property, each entry's claims in source order.
func (l *claimLog) absorb(d *data.Dataset) {
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
				c := claim{src: d.SourceName(k), obj: d.ObjectName(i), prop: p.Name, typ: p.Type}
				if p.Type == data.Categorical {
					c.cat = p.CatName(int(v.C))
				} else {
					c.f = v.F
				}
				if d.HasTimestamps() {
					c.ts, c.hasTS = d.Timestamp(i), true
				}
				l.claims = append(l.claims, c)
			})
		}
	}
}

// add appends one ingested batch.
func (l *claimLog) add(batch []claim) {
	for _, c := range batch {
		l.internSource(c.src)
		l.internProp(c.prop, c.typ)
	}
	l.claims = append(l.claims, batch...)
}

func (l *claimLog) mark() logMark {
	return logMark{claims: len(l.claims), sources: len(l.sources), props: len(l.props)}
}

// build replays the log up to mk through a fresh data.Builder: the
// dataset crhd serves at that size, built the way crhd builds it on every
// ingest.
func (l *claimLog) build(mk logMark) *data.Dataset {
	b, propIdx := l.builder(mk)
	for _, c := range l.claims[:mk.claims] {
		obj := b.Object(c.obj)
		if c.hasTS {
			b.SetTimestampIdx(obj, c.ts)
		}
		observe(b, propIdx, obj, c)
	}
	return b.Build()
}

// chunk builds batch as the I-CRH chunk crhd hands its stream processor:
// every source and property known at mk first, so per-source state stays
// aligned across chunks, then the batch's claims.
func (l *claimLog) chunk(mk logMark, batch []claim) *data.Dataset {
	b, propIdx := l.builder(mk)
	for _, c := range batch {
		obj := b.Object(c.obj)
		b.SetTimestampIdx(obj, c.ts)
		observe(b, propIdx, obj, c)
	}
	return b.Build()
}

func (l *claimLog) builder(mk logMark) (*data.Builder, map[string]int) {
	b := data.NewBuilder()
	for _, s := range l.sources[:mk.sources] {
		b.Source(s)
	}
	propIdx := make(map[string]int, mk.props)
	for _, p := range l.props[:mk.props] {
		propIdx[p.name] = b.MustProperty(p.name, p.typ)
	}
	return b, propIdx
}

func observe(b *data.Builder, propIdx map[string]int, obj int, c claim) {
	pid := propIdx[c.prop]
	v := data.Float(c.f)
	if c.typ == data.Categorical {
		v = data.Cat(b.CatValue(pid, c.cat))
	}
	b.ObserveIdx(b.Source(c.src), obj, pid, v)
}

// layerReplay holds the in-process layer measurements: each public call
// timed on the run's own inputs, as a median over repetitions.
type layerReplay struct {
	workers                             int
	decodeMs, buildFirstMs, buildLastMs float64
	prepareMs, runMs, iterations        float64
	weightMs, truthMs, objectiveMs      float64
	allocsPerRun, allocMBPerRun         float64
	processMs                           float64 // mean per batch; 0 without batches
	processCalls, buildClaimsFirst      int
	buildClaimsLast, decodeUploadBytes  int
}

// Repetitions of each replayed call; the median is reported. Each
// repetition starts on a freshly collected heap, so a collection the
// previous one left due does not land inside it: replays time the layer
// alone, and crhd's own collections show in runtime.gc_per_op.
const (
	replayReps = 5
	runReps    = 5
)

// replayLayers times the library layers crhd calls, in this process, on
// the run's inputs. It must run while no crhd is up, so the replays have
// both cores to themselves. workers is the per-request solver budget the
// workload's resolves get inside crhd.
func replayLayers(in *inputs, first, last logMark, workers int, sp *spanLog) (*layerReplay, error) {
	r := &layerReplay{workers: workers, decodeUploadBytes: len(in.upload)}
	req := sp.newRequest()

	var dec []float64
	for range replayReps {
		runtime.GC()
		t0 := time.Now()
		_, _, err := crh.ReadDataset(bytes.NewReader(in.upload))
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		sp.add("data.decode", 0, req, t0, t1)
		dec = append(dec, ms(t1.Sub(t0)))
	}
	r.decodeMs = median(dec)

	// first and last are the timed phase's sizes after its first ingest
	// and after its last; without ingest both are the upload, which crhd
	// builds once at create.
	r.buildClaimsFirst, r.buildClaimsLast = first.claims, last.claims
	r.buildFirstMs = timeBuild(in.log, first, sp, req)
	r.buildLastMs = timeBuild(in.log, last, sp, req)

	var prep []float64
	var p *core.Prepared
	for range replayReps {
		runtime.GC()
		t0 := time.Now()
		p = core.Prepare(in.refData)
		t1 := time.Now()
		sp.add("core.prepare", 0, req, t0, t1)
		prep = append(prep, ms(t1.Sub(t0)))
	}
	r.prepareMs = median(prep)

	var pool *core.Pool
	if workers > 1 {
		pool = core.NewPool(workers)
		defer pool.Close()
	}
	var runs, allocs, bytesAlloc, iters []float64
	for range runReps {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := p.Run(core.Config{Workers: workers, Pool: pool})
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("replay run: %w", err)
		}
		sp.add("core.run", 0, req, t0, t1)
		runs = append(runs, ms(t1.Sub(t0)))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytesAlloc = append(bytesAlloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		iters = append(iters, float64(res.Iterations))
	}
	r.runMs, r.allocsPerRun, r.allocMBPerRun, r.iterations = median(runs), median(allocs), median(bytesAlloc), median(iters)

	// Phase times come from separate traced runs: the trace hook costs
	// allocations the untraced runs above must not carry.
	var wPh, tPh, oPh []float64
	for range replayReps {
		runtime.GC()
		var w, t, o time.Duration
		var phases []crh.IterationTrace
		var ends []time.Time
		trace := crh.TraceFunc(func(it crh.IterationTrace) {
			phases = append(phases, it)
			ends = append(ends, time.Now())
		})
		t0 := time.Now()
		_, err := p.Run(core.Config{Workers: workers, Pool: pool, Trace: trace})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay traced run: %w", err)
		}
		parent := sp.add("core.run.traced", 0, req, t0, t1)
		for i, it := range phases {
			// The hook fires after the objective; the phases ran back to
			// back just before it.
			oStart := ends[i].Add(-it.ObjectivePhase)
			tStart := oStart.Add(-it.TruthPhase)
			wStart := tStart.Add(-it.WeightPhase)
			sp.add("core.weight", parent, req, wStart, tStart)
			sp.add("core.truth", parent, req, tStart, oStart)
			sp.add("core.objective", parent, req, oStart, ends[i])
			w, t, o = w+it.WeightPhase, t+it.TruthPhase, o+it.ObjectivePhase
		}
		wPh, tPh, oPh = append(wPh, ms(w)), append(tPh, ms(t)), append(oPh, ms(o))
	}
	r.weightMs, r.truthMs, r.objectiveMs = median(wPh), median(tPh), median(oPh)

	if len(in.batches) > 0 {
		// crhd's stream processor starts at create with the upload's
		// sources and then sees each ingested batch as one chunk.
		proc := stream.NewProcessor(in.marks[0].sources, stream.Config{Decay: 1, DecaySet: true})
		runtime.GC()
		var total time.Duration
		for i, b := range in.batches {
			ch := in.log.chunk(in.marks[i+1], b.claims)
			t0 := time.Now()
			proc.Process(ch)
			t1 := time.Now()
			sp.add("stream.process", 0, req, t0, t1)
			total += t1.Sub(t0)
		}
		r.processCalls = len(in.batches)
		r.processMs = ms(total) / float64(len(in.batches))
	}
	return r, nil
}

func timeBuild(l *claimLog, mk logMark, sp *spanLog, req int64) float64 {
	var xs []float64
	for range replayReps {
		runtime.GC()
		t0 := time.Now()
		l.build(mk)
		t1 := time.Now()
		sp.add("data.build", 0, req, t0, t1)
		xs = append(xs, ms(t1.Sub(t0)))
	}
	return median(xs)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
