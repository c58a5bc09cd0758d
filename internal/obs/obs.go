// Package obs is the observability substrate shared by the solver, the
// server subsystem, and the command-line tools: a stdlib-only metrics
// registry (atomic counters, gauges, and fixed-bucket histograms with
// Prometheus-compatible text exposition), a per-iteration solver trace
// hook with a ready-made JSONL sink, and build-information helpers
// (internal/obs/buildinfo).
//
// Layering: obs sits below every other layer — core, stream, server, and
// the binaries may import it, but obs imports nothing of theirs (enforced
// by internal/lint's layering analyzer). That is what lets one registry
// carry metrics from the HTTP edge down to the streaming processor.
//
// Metric names follow the Prometheus conventions: a family name in
// snake_case, an optional constant label set baked into the registered
// name ("crhd_requests_total{op=\"resolve\"}"), units in the name
// (_seconds, _total). The exposition groups series of one family under a
// single # HELP/# TYPE header.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is usable, but counters are normally created through
// Registry.NewCounter so they appear in the exposition.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (which must be non-negative for
// the exposition to stay Prometheus-legal; this is not enforced).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge: a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (lock-free compare-and-swap).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind tags a registered series for the # TYPE header.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered time series: a family name, an optional
// constant label set, and a read hook used at exposition time.
type series struct {
	name   string // as registered, possibly with {labels}
	family string // name with the label set stripped
	labels string // label set without braces ("" when unlabeled)
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; the
// returned metric handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	series   []*series
	byName   map[string]*series
	families map[string]*series // first-registered series of each family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:   make(map[string]*series),
		families: make(map[string]*series),
	}
}

// splitName separates an optional constant label set from a registered
// name: "f{op=\"x\"}" -> ("f", `op="x"`).
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// register adds a series under name, panicking on duplicates or on a
// family registered with a different kind or help — both are programmer
// errors a test catches immediately.
func (r *Registry) register(s *series) {
	s.family, s.labels = splitName(s.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[s.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", s.name))
	}
	if first, ok := r.families[s.family]; ok && first.kind != s.kind {
		panic(fmt.Sprintf("obs: metric family %q registered as both %v and %v", s.family, first.kind, s.kind))
	} else if !ok {
		r.families[s.family] = s
	}
	r.byName[s.name] = s
	r.series = append(r.series, s)
}

// NewCounter registers and returns a counter series. name may carry a
// constant label set in braces; help is the # HELP text, shared by the
// whole family.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&series{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewGauge registers and returns a gauge series.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&series{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed by fn at
// exposition time — for values owned elsewhere (cache occupancy, dataset
// counts, uptime). fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&series{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// NewHistogram registers and returns a histogram series with the given
// bucket upper bounds (ascending; a +Inf overflow bucket is implicit).
// A nil bounds slice selects DefBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&series{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// WritePrometheus renders every registered series in the text exposition
// format (version 0.0.4). Families are emitted in sorted name order,
// each under one # HELP/# TYPE header, series within a family in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	byFamily := make(map[string][]*series, len(r.families))
	names := make([]string, 0, len(r.families))
	for _, s := range r.series {
		if _, ok := byFamily[s.family]; !ok {
			names = append(names, s.family)
		}
		byFamily[s.family] = append(byFamily[s.family], s)
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, fam := range names {
		group := byFamily[fam]
		if h := group[0].help; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, group[0].kind)
		for _, s := range group {
			writeSeries(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series' sample lines.
func writeSeries(b *strings.Builder, s *series) {
	switch s.kind {
	case kindCounter:
		b.WriteString(sampleName(s.family, s.labels, ""))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(s.counter.Value(), 10))
		b.WriteByte('\n')
	case kindGauge:
		v := 0.0
		if s.gaugeFn != nil {
			v = s.gaugeFn()
		} else {
			v = s.gauge.Value()
		}
		// A NaN gauge means "no value yet" (a ratio before its first
		// lookup, an age before its first event). NaN breaks strict
		// exposition parsers and JSON consumers, so the sample is omitted
		// until there is a value — the same rule that omits quantiles of
		// an empty histogram.
		if math.IsNaN(v) {
			return
		}
		b.WriteString(sampleName(s.family, s.labels, ""))
		b.WriteByte(' ')
		b.WriteString(formatFloat(v))
		b.WriteByte('\n')
	case kindHistogram:
		snap := s.hist.Snapshot()
		cum := int64(0)
		for i, c := range snap.Counts {
			cum += c
			le := "+Inf"
			if i < len(snap.Bounds) {
				le = formatFloat(snap.Bounds[i])
			}
			b.WriteString(sampleName(s.family+"_bucket", joinLabels(s.labels, `le="`+le+`"`), ""))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(cum, 10))
			b.WriteByte('\n')
		}
		b.WriteString(sampleName(s.family+"_sum", s.labels, ""))
		b.WriteByte(' ')
		b.WriteString(formatFloat(snap.Sum))
		b.WriteByte('\n')
		b.WriteString(sampleName(s.family+"_count", s.labels, ""))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(snap.Count, 10))
		b.WriteByte('\n')
	}
}

// sampleName renders name{labels} (omitting empty braces).
func sampleName(name, labels, extra string) string {
	all := joinLabels(labels, extra)
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// joinLabels concatenates two label fragments with a comma, tolerating
// empties.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry's exposition —
// mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w) // headers are out; nothing to do on error
	})
}
