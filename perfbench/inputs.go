package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	crh "github.com/crhkit/crh"
)

const (
	// claimTarget and claimTol fix the input size: the generator seed of a
	// run is the first candidate whose Flight dataset holds claimTarget
	// claims within ±claimTol. Source coverage is drawn per seed, so raw
	// seeds range over ±8% in claim count, and every timing scales with
	// it; the window keeps seeds comparable while the claims themselves
	// still change with every seed.
	claimTarget = 580000
	claimTol    = 0.015
	// seedCandidates bounds the search; about one candidate in four
	// lands in the window.
	seedCandidates = 256
	// preloadDays is how many days of flights ingest-resolve uploads
	// before streaming the rest one flight-day at a time.
	preloadDays = 5
	// datasetName is the name every workload registers its dataset under.
	datasetName = "flight"
)

// inputs holds everything a run sends to crhd or checks crhd against. It
// is derived from the seed alone and built before any crhd boots.
type inputs struct {
	genSeed int64
	// gen is the generator's full dataset (200 flights × 20 days) and gt
	// its ground truth for every entry.
	gen *crh.Dataset
	gt  *crh.Table
	// upload is the TSV body of the create request: the whole dataset,
	// or the first preloadDays days on ingest-resolve.
	upload []byte
	// batches are ingest-resolve's flight-day ingest requests, in day
	// order, one per timed op.
	batches []batch
	// log is the observation log crhd keeps once the upload and every
	// batch are in; marks[0] is its size after the upload and marks[i]
	// its size after batch i.
	log   *claimLog
	marks []logMark
	// refData is the final state rebuilt from the log exactly as crhd
	// rebuilds it, and ref the in-process CRH solve of it with the
	// paper's defaults: what every crhd's last resolve must return.
	refData *crh.Dataset
	ref     *crh.Result
}

// batch is one ingest request: its JSON body and the claims it carries.
type batch struct {
	body   []byte
	claims []claim
}

// makeInputs generates the run's inputs: the Flight dataset, the upload,
// the ingest batches (nbatches of them; 0 for the resolve workloads) and
// the reference solve of the final state.
func makeInputs(seed int64, nbatches int) (*inputs, error) {
	gen, gt, genSeed, err := generate(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{genSeed: genSeed, gen: gen, gt: gt}

	up := gen
	if nbatches > 0 {
		up = gen.Slice(func(i int) bool { return gen.Timestamp(i) < preloadDays })
	}
	var buf bytes.Buffer
	if err := crh.WriteDataset(&buf, up, nil); err != nil {
		return nil, fmt.Errorf("encode upload: %w", err)
	}
	in.upload = buf.Bytes()

	streamed := laterObjects(gen, preloadDays)
	if nbatches > len(streamed) {
		return nil, fmt.Errorf("%d batches requested, only %d flight-days after the preload", nbatches, len(streamed))
	}
	for _, i := range streamed[:nbatches] {
		b, err := makeBatch(gen, i)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
	}

	// crhd decodes the upload itself; replaying from the decoded form
	// gives the log exactly the order crhd's create path gives it.
	dec, _, err := crh.ReadDataset(bytes.NewReader(in.upload))
	if err != nil {
		return nil, fmt.Errorf("decode upload: %w", err)
	}
	in.log = newClaimLog()
	in.log.absorb(dec)
	in.marks = append(in.marks, in.log.mark())
	for _, b := range in.batches {
		in.log.add(b.claims)
		in.marks = append(in.marks, in.log.mark())
	}
	in.refData = in.log.build(in.marks[len(in.marks)-1])
	in.ref, err = crh.Run(in.refData, crh.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	return in, nil
}

// generate returns the default Flight dataset, with complete ground truth,
// for the first generator seed derived from seed whose claim count lies
// in the claimTarget window. Ground-truth sampling does not consume the
// claim generator's randomness, so asking for every entry's truth leaves
// the claims unchanged.
func generate(seed int64) (*crh.Dataset, *crh.Table, int64, error) {
	lo, hi := claimTarget*(1-claimTol), claimTarget*(1+claimTol)
	for j := int64(0); j < seedCandidates; j++ {
		gs := seed*seedCandidates + j
		d, gt := crh.GenerateFlight(crh.FlightOptions{Seed: gs, TruthFrac: 1})
		if n := float64(d.NumObservations()); n >= lo && n <= hi {
			return d, gt, gs, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("no generator seed for seed %d yields %d±%.1f%% claims", seed, claimTarget, 100*claimTol)
}

// laterObjects lists the objects timestamped at or after day, in day
// order and, within a day, in generator (flight) order.
func laterObjects(d *crh.Dataset, day int) []int {
	var out []int
	for i := 0; i < d.NumObjects(); i++ {
		if d.Timestamp(i) >= day {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return d.Timestamp(out[a]) < d.Timestamp(out[b]) })
	return out
}

// obsJSON is one observation of crhd's ingest request body.
type obsJSON struct {
	Source    string          `json:"source"`
	Object    string          `json:"object"`
	Property  string          `json:"property"`
	Value     json.RawMessage `json:"value"`
	Timestamp int             `json:"timestamp"`
}

// makeBatch builds the ingest request carrying every claim about object
// i: one flight-day, timestamped by its day.
func makeBatch(d *crh.Dataset, i int) (batch, error) {
	var b batch
	var obs []obsJSON
	var err error
	for m := 0; m < d.NumProps(); m++ {
		p := d.Prop(m)
		d.ForEntry(d.Entry(i, m), func(k int, v crh.Value) {
			c := claim{src: d.SourceName(k), obj: d.ObjectName(i), prop: p.Name, typ: p.Type, ts: d.Timestamp(i), hasTS: true}
			var raw []byte
			if p.Type == crh.Categorical {
				c.cat = p.CatName(int(v.C))
				var qerr error
				if raw, qerr = json.Marshal(c.cat); qerr != nil {
					err = qerr
				}
			} else {
				c.f = v.F
				raw = strconv.AppendFloat(nil, c.f, 'g', -1, 64)
			}
			b.claims = append(b.claims, c)
			obs = append(obs, obsJSON{Source: c.src, Object: c.obj, Property: c.prop, Value: raw, Timestamp: c.ts})
		})
	}
	if err != nil {
		return batch{}, fmt.Errorf("encode batch %s: %w", d.ObjectName(i), err)
	}
	body, err := json.Marshal(struct {
		Observations []obsJSON `json:"observations"`
	}{obs})
	if err != nil {
		return batch{}, fmt.Errorf("encode batch %s: %w", d.ObjectName(i), err)
	}
	b.body = body
	return b, nil
}
