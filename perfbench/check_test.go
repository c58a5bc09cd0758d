package main

import (
	"net/http"
	"strings"
	"testing"
)

func TestSplitEnvelope(t *testing.T) {
	for _, tc := range []struct {
		in                string
		cached, coalesced bool
		rest              string
		ok                bool
	}{
		{`{"cached":false,"coalesced":false,"dataset":"flight","version":3}`, false, false, `"dataset":"flight","version":3}`, true},
		{`{"cached":true,"coalesced":false,"x":1}`, true, false, `"x":1}`, true},
		{`{"cached":false,"coalesced":true,"x":1}`, false, true, `"x":1}`, true},
		{`{"dataset":"flight"}`, false, false, "", false},
		{`{"cached":maybe,"coalesced":false,}`, false, false, "", false},
	} {
		cached, coalesced, rest, ok := splitEnvelope([]byte(tc.in))
		if ok != tc.ok || cached != tc.cached || coalesced != tc.coalesced || string(rest) != tc.rest {
			t.Errorf("splitEnvelope(%s) = %v %v %q %v, want %v %v %q %v",
				tc.in, cached, coalesced, rest, ok, tc.cached, tc.coalesced, tc.rest, tc.ok)
		}
	}
}

// On a workload whose every request must miss crhd's cache, a cached or
// coalesced response fails the check even when its bytes are right; on
// the others it is counted and passes.
func TestCheckResolveMiss(t *testing.T) {
	const body = `"dataset":"flight","version":1}`
	ok := call{status: http.StatusOK}
	for _, tc := range []struct {
		envelope string
		miss     bool
		wantErr  bool
	}{
		{`{"cached":false,"coalesced":false,`, true, false},
		{`{"cached":true,"coalesced":false,`, true, true},
		{`{"cached":false,"coalesced":true,`, true, true},
		{`{"cached":true,"coalesced":false,`, false, false},
		{`{"cached":false,"coalesced":true,`, false, false},
	} {
		var wk worker
		wk.buf.WriteString(tc.envelope + body)
		err := wk.checkResolve(ok, []byte(body), 0, tc.miss)
		if (err != nil) != tc.wantErr {
			t.Errorf("checkResolve(%s, miss=%v) = %v, want error %v", tc.envelope, tc.miss, err, tc.wantErr)
		}
		if got := wk.cached + wk.coalesced; got != strings.Count(tc.envelope, "true") {
			t.Errorf("checkResolve(%s) counted %d cached or coalesced responses", tc.envelope, got)
		}
	}
	var wk worker
	wk.buf.WriteString(`{"cached":false,"coalesced":false,"dataset":"flight","version":2}`)
	if err := wk.checkResolve(ok, []byte(body), 0, true); err == nil {
		t.Error("checkResolve accepted a body that differs from the reference")
	}
}

func TestJSONVersion(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{`{"dataset":"flight","version":42,"ingested":135}`, 42, true},
		{`"dataset":"flight","version":7,"method":"crh"`, 7, true},
		{`{"dataset":"flight"}`, 0, false},
		{`{"version":"x"}`, 0, false},
	} {
		got, ok := jsonVersion([]byte(tc.in))
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("jsonVersion(%s) = %d, %v; want %d, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// The benchmark's log replay must rebuild exactly what it absorbed: a
// dataset with the same claims, category names and timestamps.
func TestClaimLogRoundTrip(t *testing.T) {
	in, err := makeInputs(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(in.batches), 3; got != want {
		t.Fatalf("%d batches, want %d", got, want)
	}
	up := in.log.build(in.marks[0])
	pre := in.gen.Slice(func(i int) bool { return in.gen.Timestamp(i) < preloadDays })
	if up.NumObservations() != pre.NumObservations() || up.NumObjects() != pre.NumObjects() {
		t.Fatalf("rebuilt upload has %d claims on %d objects, want %d on %d",
			up.NumObservations(), up.NumObjects(), pre.NumObservations(), pre.NumObjects())
	}
	objs, props := indexNames(pre)
	srcs := map[string]int{}
	for k := 0; k < pre.NumSources(); k++ {
		srcs[pre.SourceName(k)] = k
	}
	for i := 0; i < up.NumObjects(); i++ {
		pi := objs[up.ObjectName(i)]
		if up.Timestamp(i) != pre.Timestamp(pi) {
			t.Fatalf("object %s timestamp %d, want %d", up.ObjectName(i), up.Timestamp(i), pre.Timestamp(pi))
		}
		for m := 0; m < up.NumProps(); m++ {
			p, pm := up.Prop(m), props[up.Prop(m).Name]
			for k := 0; k < up.NumSources(); k++ {
				pk := srcs[up.SourceName(k)]
				if up.Has(k, i, m) != pre.Has(pk, pi, pm) {
					t.Fatalf("claim presence differs at %s/%s/%s", up.SourceName(k), up.ObjectName(i), p.Name)
				}
				if !up.Has(k, i, m) {
					continue
				}
				got, want := formatValue(up.Get(k, i, m), p), formatValue(pre.Get(pk, pi, pm), pre.Prop(pm))
				if got != want {
					t.Fatalf("claim %s/%s/%s = %s, want %s", up.SourceName(k), up.ObjectName(i), p.Name, got, want)
				}
			}
		}
	}
	final := in.log.build(in.marks[len(in.marks)-1])
	if got, want := final.NumObjects(), up.NumObjects()+3; got != want {
		t.Errorf("final state has %d objects, want %d", got, want)
	}
	if in.ref.Truths.Count() == 0 || len(in.ref.Weights) != final.NumSources() {
		t.Errorf("reference solve resolved %d truths and %d weights", in.ref.Truths.Count(), len(in.ref.Weights))
	}
}
