package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"unicode/utf8"

	"github.com/crhkit/crh/internal/baseline"
	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// MethodCRH is the resolve method name for the CRH framework itself; any
// name from baseline.Names() selects that baseline instead.
const MethodCRH = "crh"

// ResolveRequest is the JSON body of POST /v1/datasets/{name}/resolve.
// A missing or empty body selects CRH with the paper's defaults.
type ResolveRequest struct {
	// Method is "crh" (default) or a registered baseline name.
	Method string `json:"method,omitempty"`
	// Options tunes the CRH solver; ignored for baselines.
	Options ResolveOptions `json:"options,omitempty"`
}

// ResolveOptions mirrors the tunable pieces of crh.Options over JSON.
// Zero values select the paper's defaults. Options apply only to the
// "crh" method; baselines run with their authors' parameters.
type ResolveOptions struct {
	// ContinuousLoss: "absolute" (default), "squared", or "huber".
	ContinuousLoss string `json:"continuous_loss,omitempty"`
	// CategoricalLoss: "zero-one" (default), "probabilistic", or
	// "edit-distance".
	CategoricalLoss string `json:"categorical_loss,omitempty"`
	// Weights: "exp-max" (default), "exp-sum", "best-source", "top-j",
	// or "catd".
	Weights string `json:"weights,omitempty"`
	// TopJ is the source count for the "top-j" scheme (default 3).
	TopJ int `json:"top_j,omitempty"`
	// MaxIters bounds the solver iterations (default 20).
	MaxIters int `json:"max_iters,omitempty"`
	// Confidence requests per-entry confidence scores in the response.
	Confidence bool `json:"confidence,omitempty"`
}

// normalize fills defaults in place so equivalent requests hash equally.
func (r *ResolveRequest) normalize() {
	if r.Method == "" {
		r.Method = MethodCRH
	}
	o := &r.Options
	if o.ContinuousLoss == "" {
		o.ContinuousLoss = "absolute"
	}
	if o.CategoricalLoss == "" {
		o.CategoricalLoss = "zero-one"
	}
	if o.Weights == "" {
		o.Weights = "exp-max"
	}
	if o.TopJ == 0 {
		o.TopJ = 3
	}
	if o.MaxIters == 0 {
		o.MaxIters = 20
	}
}

// validate checks the normalized request, resolving the baseline method
// when one is named (nil for CRH itself).
func (r *ResolveRequest) validate() (baseline.Method, error) {
	if r.Method != MethodCRH {
		m, ok := baseline.ByName(r.Method)
		if !ok {
			return nil, fmt.Errorf("unknown method %q (known: %s, %v)", r.Method, MethodCRH, baseline.Names())
		}
		return m, nil
	}
	if _, err := r.Options.build(); err != nil {
		return nil, err
	}
	return nil, nil
}

// build translates the normalized options into a solver configuration.
func (o ResolveOptions) build() (core.Config, error) {
	cfg := core.Config{MaxIters: o.MaxIters, ComputeConfidence: o.Confidence}
	switch o.ContinuousLoss {
	case "absolute":
		cfg.ContinuousLoss = loss.NormalizedAbsolute{}
	case "squared":
		cfg.ContinuousLoss = loss.NormalizedSquared{}
	case "huber":
		cfg.ContinuousLoss = loss.Huber{}
	default:
		return cfg, fmt.Errorf("unknown continuous_loss %q", o.ContinuousLoss)
	}
	switch o.CategoricalLoss {
	case "zero-one":
		cfg.CategoricalLoss = loss.ZeroOne{}
	case "probabilistic":
		cfg.CategoricalLoss = loss.SquaredProb{}
	case "edit-distance":
		cfg.CategoricalLoss = loss.EditDistance{}
	default:
		return cfg, fmt.Errorf("unknown categorical_loss %q", o.CategoricalLoss)
	}
	switch o.Weights {
	case "exp-max":
		cfg.Scheme = reg.ExpMax{}
	case "exp-sum":
		cfg.Scheme = reg.ExpSum{}
	case "best-source":
		cfg.Scheme = reg.BestSource{}
	case "top-j":
		if o.TopJ < 1 {
			return cfg, fmt.Errorf("top_j must be positive, got %d", o.TopJ)
		}
		cfg.Scheme = reg.TopJ{J: o.TopJ}
	case "catd":
		cfg.Scheme = reg.CATD{}
	default:
		return cfg, fmt.Errorf("unknown weights %q", o.Weights)
	}
	return cfg, nil
}

// cacheKey identifies one computation on a snapshot: the method and the
// normalized options. Identical keys on one snapshot ⇒ identical
// results, which is what makes both its results table's caching and
// request coalescing sound.
func cacheKey(req *ResolveRequest) string {
	if req.Method != MethodCRH {
		// Baselines ignore options, so differing (ignored) options must
		// still coalesce to one computation.
		return "m=" + req.Method
	}
	o := req.Options
	return fmt.Sprintf("m=crh|cl=%s|tl=%s|w=%s|j=%d|it=%d|conf=%t",
		o.ContinuousLoss, o.CategoricalLoss, o.Weights, o.TopJ, o.MaxIters, o.Confidence)
}

// TruthValue is the resolved value of one entry: a float64 for
// continuous properties or a string for categorical ones. Holding both
// representations in concrete fields (instead of a single `any`) keeps
// the resolve hot path free of interface boxing; on the wire the value
// is still a bare JSON number or string, via MarshalJSON.
type TruthValue struct {
	// IsCat selects the representation: Cat when true, F otherwise.
	IsCat bool
	// F is the continuous value (valid when !IsCat).
	F float64
	// Cat is the categorical value (valid when IsCat).
	Cat string
}

// MarshalJSON renders the value as a bare JSON number or string. It goes
// through encoding/json deliberately: this slow path is the reference
// the fuzz differential in encode_test.go holds the append-based fast
// encoder against, so it must not share that encoder's code.
func (v TruthValue) MarshalJSON() ([]byte, error) {
	if v.IsCat {
		return stdlibJSON(v.Cat)
	}
	return stdlibJSON(v.F)
}

// UnmarshalJSON accepts a JSON number (continuous) or string
// (categorical) — the same shapes ingest accepts for observations.
func (v *TruthValue) UnmarshalJSON(b []byte) error {
	tv, ok := decodeValue(b)
	if !ok {
		return fmt.Errorf("truth value must be a JSON number or string")
	}
	*v = tv
	return nil
}

// decodeValue decodes the JSON value b as a number (continuous) or a
// string (categorical), picking the one decode by b's first byte. ok is
// false for anything else: null, booleans, objects, arrays, and numbers
// out of float64's range. A string without escapes or invalid UTF-8 is
// its own content, so only one that needs unquoting goes through
// encoding/json.
func decodeValue(b []byte) (v TruthValue, ok bool) {
	switch {
	case len(b) >= 2 && b[0] == '"':
		v.IsCat = true
		if in := b[1 : len(b)-1]; b[len(b)-1] == '"' && plainJSON(in) {
			v.Cat = string(in)
			return v, true
		}
		var s string
		err := json.Unmarshal(b, &s)
		v.Cat = s
		return v, err == nil
	case len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9'):
		var f float64
		err := json.Unmarshal(b, &f)
		v.F = f
		return v, err == nil
	}
	return v, false
}

// plainJSON reports whether s, a JSON string literal's content, decodes
// to itself: it holds no escape, quote or control byte, and is valid
// UTF-8 (encoding/json replaces invalid bytes).
func plainJSON(s []byte) bool {
	for _, c := range s {
		if c == '\\' || c == '"' || c < ' ' {
			return false
		}
	}
	return utf8.Valid(s)
}

// stdlibJSON marshals v with encoding/json under the server's encoder
// settings (HTML escaping off), without the Encoder's trailing newline.
func stdlibJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// TruthJSON is one resolved entry in a response.
type TruthJSON struct {
	// Object and Property name the entry the value resolves.
	Object   string `json:"object"`
	Property string `json:"property"` // see Object
	// Value is a float64 for continuous properties, a string for
	// categorical ones.
	Value TruthValue `json:"value"`
	// Confidence is present when the request asked for it (CRH only).
	Confidence *float64 `json:"confidence,omitempty"`
}

// SourceWeight pairs one source name with its estimated reliability
// weight.
type SourceWeight struct {
	// Name is the source; Weight its reliability estimate.
	Name   string
	Weight float64 // see Name
}

// SourceWeights is a name-sorted list of per-source weights. On the wire
// it is a JSON object keyed by source name — the shape the endpoint has
// always served — but in memory it is a flat slice, so building a
// response allocates no intermediate map. The list must be kept sorted
// by Name: encoding/json emits map keys sorted, and the fast encoder
// emits the slice in order, so sortedness is what keeps the two
// byte-identical.
type SourceWeights []SourceWeight

// MarshalJSON renders the weights as a JSON object via encoding/json
// (the reference path for the fuzz differential; see TruthValue).
func (ws SourceWeights) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, len(ws))
	for _, w := range ws {
		m[w.Name] = w.Weight
	}
	return stdlibJSON(m)
}

// UnmarshalJSON decodes the JSON-object shape back into the canonical
// name-sorted slice.
func (ws *SourceWeights) UnmarshalJSON(b []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	out := make(SourceWeights, 0, len(m))
	for name, w := range m {
		out = append(out, SourceWeight{Name: name, Weight: w})
	}
	// The map range above has no order; sorting restores the canonical
	// order before anyone reads the slice.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	*ws = out
	return nil
}

// Get returns the weight recorded for the named source (0 when absent,
// matching the old map lookup).
func (ws SourceWeights) Get(name string) float64 {
	for _, w := range ws {
		if w.Name == name {
			return w.Weight
		}
	}
	return 0
}

// ResolveResponse is the immutable result of one computation. Its
// encoding may be served to many requests (cache hits, coalesced
// followers); the per-request cached/coalesced flags live in the HTTP
// envelope, never here.
type ResolveResponse struct {
	// Dataset and Version identify the snapshot that was resolved;
	// Method is the algorithm that resolved it.
	Dataset string `json:"dataset"`
	Version int64  `json:"version"` // see Dataset
	Method  string `json:"method"`  // see Dataset
	// Truths lists every resolved entry, ordered by object then property.
	Truths []TruthJSON `json:"truths"`
	// Weights lists per-source reliability weights, name-sorted; omitted
	// for baselines that estimate none.
	Weights SourceWeights `json:"weights,omitempty"`
	// Converged and Iterations report solver diagnostics (CRH only).
	Converged  *bool `json:"converged,omitempty"`
	Iterations int   `json:"iterations,omitempty"` // see Converged
}

func sortTruths(ts []TruthJSON) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Object != ts[j].Object {
			return ts[i].Object < ts[j].Object
		}
		return ts[i].Property < ts[j].Property
	})
}
