package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	crh "github.com/crhkit/crh"
)

// splitEnvelope cuts crhd's per-request envelope, `{"cached":…,
// "coalesced":…,`, off a resolve response, returning its flags and the
// shared body bytes after it: the part every response for one version
// and set of options must repeat byte for byte.
func splitEnvelope(b []byte) (cached, coalesced bool, rest []byte, ok bool) {
	rest, ok = bytes.CutPrefix(b, []byte(`{"cached":`))
	if !ok {
		return false, false, nil, false
	}
	if cached, rest, ok = cutBool(rest); !ok {
		return false, false, nil, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"coalesced":`)); !ok {
		return false, false, nil, false
	}
	if coalesced, rest, ok = cutBool(rest); !ok {
		return false, false, nil, false
	}
	rest, ok = bytes.CutPrefix(rest, []byte(","))
	return cached, coalesced, rest, ok
}

func cutBool(b []byte) (v bool, rest []byte, ok bool) {
	if rest, ok = bytes.CutPrefix(b, []byte("true")); ok {
		return true, rest, true
	}
	rest, ok = bytes.CutPrefix(b, []byte("false"))
	return false, rest, ok
}

// jsonVersion reads the first `"version":N` field of a crhd response
// (resolve bodies and ingest acknowledgements both carry one) without
// decoding the rest.
func jsonVersion(b []byte) (int64, bool) {
	_, after, ok := bytes.Cut(b, []byte(`"version":`))
	if !ok {
		return 0, false
	}
	end := 0
	for end < len(after) && after[end] >= '0' && after[end] <= '9' {
		end++
	}
	v, err := strconv.ParseInt(string(after[:end]), 10, 64)
	return v, err == nil
}

// resolveJSON is the part of crhd's resolve response the checks read.
type resolveJSON struct {
	Version int64 `json:"version"`
	Truths  []struct {
		Object   string          `json:"object"`
		Property string          `json:"property"`
		Value    json.RawMessage `json:"value"`
	} `json:"truths"`
	Weights    map[string]float64 `json:"weights"`
	Converged  *bool              `json:"converged"`
	Iterations int                `json:"iterations"`
}

// quality is a resolve's truths scored against the generator's ground
// truth (the paper's measures: error rate on categorical entries, MNAD on
// continuous ones).
type quality struct {
	errorRate, mnad float64
	catEntries      int
	contEntries     int
}

// checkFinal decodes a round's last resolve response and checks it
// against the in-process CRH solve of the same observations: the same
// version, every truth and weight bit-identical, the same iteration
// count. It then scores the truths against the ground truth.
func checkFinal(body []byte, in *inputs, wantVersion int64) (quality, error) {
	var r resolveJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return quality{}, fmt.Errorf("decode resolve response: %w", err)
	}
	if r.Version != wantVersion {
		return quality{}, fmt.Errorf("resolved version %d, want %d", r.Version, wantVersion)
	}
	ref, d := in.ref, in.refData
	if r.Iterations != ref.Iterations || r.Converged == nil || *r.Converged != ref.Converged {
		return quality{}, fmt.Errorf("solver ran %d iterations, in-process run %d", r.Iterations, ref.Iterations)
	}
	if got, want := len(r.Truths), ref.Truths.Count(); got != want {
		return quality{}, fmt.Errorf("%d truths, in-process run resolves %d", got, want)
	}
	refObj, refProp := indexNames(d)
	genObj, genProp := indexNames(in.gen)
	out, gt := crh.NewTable(in.gen), crh.NewTable(in.gen)
	for _, t := range r.Truths {
		i, iok := refObj[t.Object]
		m, mok := refProp[t.Property]
		want, wok := crh.Value{}, false
		if iok && mok {
			want, wok = ref.Truths.GetAt(i, m)
		}
		if !wok {
			return quality{}, fmt.Errorf("truth for %s/%s, which the in-process run leaves unresolved", t.Object, t.Property)
		}
		p := d.Prop(m)
		got, err := decodeValue(t.Value, p)
		if err != nil {
			return quality{}, fmt.Errorf("truth %s/%s: %w", t.Object, t.Property, err)
		}
		if !sameValue(got, want, p) {
			return quality{}, fmt.Errorf("truth %s/%s is %s, in-process run gives %s", t.Object, t.Property, t.Value, formatValue(want, p))
		}
		// Score on the generator's dataset, whose entry indices the
		// ground truth uses.
		gi, gm := genObj[t.Object], genProp[t.Property]
		gp := in.gen.Prop(gm)
		gv, err := decodeValue(t.Value, gp)
		if err != nil {
			return quality{}, fmt.Errorf("truth %s/%s: %w", t.Object, t.Property, err)
		}
		e := in.gen.Entry(gi, gm)
		out.Set(e, gv)
		if tv, ok := in.gt.Get(e); ok {
			gt.Set(e, tv)
		}
	}
	if got, want := len(r.Weights), d.NumSources(); got != want {
		return quality{}, fmt.Errorf("%d weights, want %d", got, want)
	}
	for k := 0; k < d.NumSources(); k++ {
		w, ok := r.Weights[d.SourceName(k)]
		if !ok || math.Float64bits(w) != math.Float64bits(ref.Weights[k]) {
			return quality{}, fmt.Errorf("weight of %s is %v, in-process run gives %v", d.SourceName(k), w, ref.Weights[k])
		}
	}
	m := crh.Evaluate(in.gen, out, gt)
	return quality{errorRate: m.ErrorRate, mnad: m.MNAD, catEntries: m.CatEntries, contEntries: m.ContEntries}, nil
}

// indexNames maps a dataset's object and property names to indices.
func indexNames(d *crh.Dataset) (objs, props map[string]int) {
	objs = make(map[string]int, d.NumObjects())
	for i := 0; i < d.NumObjects(); i++ {
		objs[d.ObjectName(i)] = i
	}
	props = make(map[string]int, d.NumProps())
	for m := 0; m < d.NumProps(); m++ {
		props[d.Prop(m).Name] = m
	}
	return objs, props
}

// decodeValue reads a truth's JSON value as property p's value: a number
// for continuous properties, a category name (looked up in p's
// dictionary) for categorical ones.
func decodeValue(raw json.RawMessage, p *crh.Property) (crh.Value, error) {
	if p.Type == crh.Categorical {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return crh.Value{}, fmt.Errorf("categorical value %s: %w", raw, err)
		}
		id, ok := p.CatID(s)
		if !ok {
			return crh.Value{}, fmt.Errorf("category %q was never claimed", s)
		}
		return crh.Cat(id), nil
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return crh.Value{}, fmt.Errorf("continuous value %s: %w", raw, err)
	}
	return crh.Float(f), nil
}

// sameValue compares bit for bit: continuous values by their IEEE-754
// bits, categorical values by dictionary ID.
func sameValue(a, b crh.Value, p *crh.Property) bool {
	if p.Type == crh.Categorical {
		return a.C == b.C
	}
	return math.Float64bits(a.F) == math.Float64bits(b.F)
}

func formatValue(v crh.Value, p *crh.Property) string {
	if p.Type == crh.Categorical {
		return strconv.Quote(p.CatName(int(v.C)))
	}
	return strconv.FormatFloat(v.F, 'g', -1, 64)
}
