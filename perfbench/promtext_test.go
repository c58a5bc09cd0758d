package main

import (
	"math"
	"strings"
	"testing"
)

const exposition = `# HELP crhd_stage_seconds per-request resolve latency by pipeline stage
# TYPE crhd_stage_seconds histogram
crhd_stage_seconds_bucket{stage="solve",le="0.05"} 3
crhd_stage_seconds_bucket{stage="solve",le="+Inf"} 4
crhd_stage_seconds_sum{stage="solve"} 0.040743705
crhd_stage_seconds_count{stage="solve"} 4

go_heap_inuse_bytes 1.55426816e+08
crhd_odd{path="a b}c",quote="x\"y"} 7 1700000000000
crhd_nan NaN
crhd_inf +Inf
`

func TestParseMetrics(t *testing.T) {
	s, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`crhd_stage_seconds_bucket{stage="solve",le="0.05"}`: 3,
		`crhd_stage_seconds_bucket{stage="solve",le="+Inf"}`: 4,
		`crhd_stage_seconds_sum{stage="solve"}`:              0.040743705,
		`crhd_stage_seconds_count{stage="solve"}`:            4,
		`go_heap_inuse_bytes`:                                1.55426816e+08,
		`crhd_odd{path="a b}c",quote="x\"y"}`:                7,
	}
	for k, v := range want {
		got, ok := s[k]
		if !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if !math.IsNaN(s["crhd_nan"]) || !math.IsInf(s["crhd_inf"], 1) {
		t.Errorf("NaN/+Inf samples parsed as %v, %v", s["crhd_nan"], s["crhd_inf"])
	}
	if len(s) != len(want)+2 {
		t.Errorf("parsed %d series, want %d", len(s), len(want)+2)
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"no_value\n",
		`unterminated{stage="solve" 1` + "\n",
		"bad_value abc\n",
		"too_many 1 2 3\n",
	} {
		if _, err := parseMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("parseMetrics(%q) succeeded, want an error", in)
		}
	}
}

func TestDelta(t *testing.T) {
	before := scrape{"a": 1.5}
	after := scrape{"a": 4, "b": 2}
	if got := delta(before, after, "a"); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("delta a = %g, want 2.5", got)
	}
	// A series that appears between scrapes counts from 0.
	if got := delta(before, after, "b"); math.Abs(got-2) > 1e-12 {
		t.Errorf("delta b = %g, want 2", got)
	}
}

func TestParseCPULine(t *testing.T) {
	for _, tc := range []struct {
		line         string
		steal, total uint64
		ok           bool
	}{
		// user nice system idle iowait irq softirq steal guest guest_nice
		{"cpu  100 1 20 800 3 0 6 70 50 0", 70, 1000, true},
		{"cpu 5 0 0 5 0 0 0 0", 0, 10, true},
		{"cpu0 100 1 20 800 3 0 6 70 0 0", 0, 0, false},
		{"cpu 100 1 20 800 3 0 6", 0, 0, false},
		{"cpu 100 1 20 800 x 0 6 70", 0, 0, false},
	} {
		steal, total, ok := parseCPULine(tc.line)
		if steal != tc.steal || total != tc.total || ok != tc.ok {
			t.Errorf("parseCPULine(%q) = %d, %d, %v; want %d, %d, %v", tc.line, steal, total, ok, tc.steal, tc.total, tc.ok)
		}
	}
	if got := stealShare(10, 100, true, 30, 300, true); math.Float64bits(got) != math.Float64bits(10) {
		t.Errorf("stealShare = %v, want 10", got)
	}
	if got := stealShare(10, 100, true, 30, 300, false); !math.IsNaN(got) {
		t.Errorf("stealShare with a failed reading = %v, want NaN", got)
	}
}

func TestParseSchedstat(t *testing.T) {
	for _, tc := range []struct {
		line string
		ns   uint64
		ok   bool
	}{
		// run time, run-queue wait, timeslices
		{"12345678 910 11\n", 12345678, true},
		{"0 0 0", 0, true},
		{"", 0, false},
		{"x 1 2", 0, false},
	} {
		ns, err := parseSchedstat(tc.line)
		if ns != tc.ns || (err == nil) != tc.ok {
			t.Errorf("parseSchedstat(%q) = %d, %v; want %d, ok %v", tc.line, ns, err, tc.ns, tc.ok)
		}
	}
}

func TestTenths(t *testing.T) {
	var xs []float64
	for i := 1; i <= 20; i++ {
		xs = append(xs, float64(i))
	}
	rounds := []*round{{ingestMs: xs}, {ingestMs: xs[:5]}}
	first, last := tenths(rounds, func(rd *round) []float64 { return rd.ingestMs })
	// Only the 20-op round has a tenth: its first two ops and its last two.
	if math.Float64bits(first) != math.Float64bits(1.5) || math.Float64bits(last) != math.Float64bits(19.5) {
		t.Errorf("tenths = %v, %v; want 1.5, 19.5", first, last)
	}
}
