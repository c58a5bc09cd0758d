package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestCrhbenchList(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-list"}, &out, &errB); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"table1", "table2", "fig1", "table6", "fig8"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("listing missing %s", id)
		}
	}
}

func TestCrhbenchSingleExperiment(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-exp", "table1"}, &out, &errB); code != 0 {
		t.Fatalf("exit %d (%s)", code, errB.String())
	}
	if !strings.Contains(out.String(), "# Observations") {
		t.Fatalf("table1 output malformed:\n%s", out.String())
	}
}

func TestCrhbenchErrors(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-exp", "table99"}, &out, &errB); code != 2 {
		t.Fatalf("unknown experiment: exit %d", code)
	}
	if code := run([]string{"-scale", "gigantic"}, &out, &errB); code != 2 {
		t.Fatalf("unknown scale: exit %d", code)
	}
	if code := run([]string{"-badflag"}, &out, &errB); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
}

// TestCrhbenchJSON runs one experiment with -json and validates the
// BENCH_<id>.json record.
func TestCrhbenchJSON(t *testing.T) {
	dir := t.TempDir()
	var out, errB bytes.Buffer
	if code := run([]string{"-exp", "table1", "-json", dir}, &out, &errB); code != 0 {
		t.Fatalf("exit %d (%s)", code, errB.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Name      string `json:"name"`
		Scale     string `json:"scale"`
		Runs      int    `json:"runs"`
		WallNs    int64  `json:"wall_ns"`
		NsPerOp   int64  `json:"ns_per_op"`
		TableRows int    `json:"table_rows"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "table1" || rec.Scale != "small" || rec.Runs != 1 {
		t.Errorf("record = %+v", rec)
	}
	if rec.WallNs <= 0 || rec.NsPerOp <= 0 || rec.TableRows <= 0 || rec.GoVersion == "" {
		t.Errorf("record has empty measurements: %+v", rec)
	}
	// The report still renders to stdout alongside the JSON.
	if !strings.Contains(out.String(), "# Observations") {
		t.Errorf("table1 report missing:\n%s", out.String())
	}
}

// TestCrhbenchWorkersSweep runs the parallel-solver sweep and validates
// that every budget's record pins the worker count and GOMAXPROCS.
func TestCrhbenchWorkersSweep(t *testing.T) {
	dir := t.TempDir()
	var out, errB bytes.Buffer
	if code := run([]string{"-workers", "1,3", "-json", dir}, &out, &errB); code != 0 {
		t.Fatalf("exit %d (%s)", code, errB.String())
	}
	for _, k := range []int{1, 3} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCH_workers-"+strconv.Itoa(k)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Name       string `json:"name"`
			WallNs     int64  `json:"wall_ns"`
			TableRows  int    `json:"table_rows"`
			GoMaxProcs int    `json:"gomaxprocs"`
			Workers    int    `json:"workers"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Workers != k || rec.GoMaxProcs < 1 {
			t.Errorf("workers-%d record pins = %+v", k, rec)
		}
		if rec.WallNs <= 0 || rec.TableRows <= 0 {
			t.Errorf("workers-%d record has empty measurements: %+v", k, rec)
		}
	}
	if !strings.Contains(out.String(), "bit-identical to sequential") {
		t.Errorf("sweep output missing cross-check line:\n%s", out.String())
	}
}

// TestCrhbenchScaleSweep runs the solver scale sweep on the small tier
// and validates the record's sequential/parallel pair.
func TestCrhbenchScaleSweep(t *testing.T) {
	dir := t.TempDir()
	var out, errB bytes.Buffer
	if code := run([]string{"-scales", "small", "-json", dir}, &out, &errB); code != 0 {
		t.Fatalf("exit %d (%s)", code, errB.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_scale-small.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Name       string  `json:"name"`
		Scale      string  `json:"scale"`
		WallNs     int64   `json:"wall_ns"`
		SeqWallNs  int64   `json:"seq_wall_ns"`
		Speedup    float64 `json:"speedup"`
		TableRows  int     `json:"table_rows"`
		GoMaxProcs int     `json:"gomaxprocs"`
		Workers    int     `json:"workers"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "scale-small" || rec.Scale != "small" || rec.Workers != 8 || rec.GoMaxProcs < 1 {
		t.Errorf("record pins = %+v", rec)
	}
	if rec.WallNs <= 0 || rec.SeqWallNs <= 0 || rec.TableRows <= 0 {
		t.Errorf("record has empty measurements: %+v", rec)
	}
	// A speedup is recorded only when every worker had a CPU.
	if hasCPUs := rec.Workers <= rec.GoMaxProcs; hasCPUs != (rec.Speedup > 0) {
		t.Errorf("speedup %v recorded with workers=%d, gomaxprocs=%d", rec.Speedup, rec.Workers, rec.GoMaxProcs)
	}
	if rec.Workers > rec.GoMaxProcs && !strings.Contains(out.String(), "speedup n/a") {
		t.Errorf("sweep output does not mark the speedup n/a:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "bit-identical") {
		t.Errorf("sweep output missing cross-check line:\n%s", out.String())
	}
}

// TestCrhbenchScaleSweepBad covers unknown tier names.
func TestCrhbenchScaleSweepBad(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-scales", "gigantic"}, &out, &errB); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestCrhbenchWorkersBad covers malformed -workers lists.
func TestCrhbenchWorkersBad(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-workers", "1,zero"}, &out, &errB); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-workers", "0"}, &out, &errB); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestCrhbenchJSONBadDir covers the unwritable -json directory path.
func TestCrhbenchJSONBadDir(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-exp", "table1", "-json", "/nonexistent-dir"}, &out, &errB); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// TestCrhbenchVersion checks -version prints build identity.
func TestCrhbenchVersion(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run([]string{"-version"}, &out, &errB); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errB.String(), "crhbench ") {
		t.Fatalf("-version output %q", errB.String())
	}
}
