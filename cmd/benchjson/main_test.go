package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		name string
		want map[string]float64
	}{
		{
			line: "BenchmarkFlowChip/s9234-8   	      36	  31415926 ns/op	        16.0 tester_iters",
			ok:   true, name: "FlowChip/s9234",
			want: map[string]float64{"ns/op": 31415926, "tester_iters": 16},
		},
		{
			line: "BenchmarkEngineRunChips/workers-all-8         1  2000000 ns/op  32000 chips/s",
			ok:   true, name: "EngineRunChips/workers-all",
			want: map[string]float64{"ns/op": 2e6, "chips/s": 32000},
		},
		{
			line: "BenchmarkPrepare 10 500 ns/op", // no -procs suffix
			ok:   true, name: "Prepare",
			want: map[string]float64{"ns/op": 500},
		},
		{line: "ok  	effitest	61.395s", ok: false},
		{line: "PASS", ok: false},
		{line: "BenchmarkBroken-8 notanumber ns/op", ok: false},
		{line: "", ok: false},
	}
	for _, tc := range cases {
		r, ok := parseLine(tc.line)
		if ok != tc.ok {
			t.Errorf("parseLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if r.Name != tc.name {
			t.Errorf("parseLine(%q) name = %q, want %q", tc.line, r.Name, tc.name)
		}
		for unit, v := range tc.want {
			if r.Metrics[unit] != v {
				t.Errorf("parseLine(%q) metric %s = %v, want %v", tc.line, unit, r.Metrics[unit], v)
			}
		}
	}
}

func writeReport(t *testing.T, path string, results []Result) {
	t.Helper()
	data, err := json.Marshal(Report{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeReport(t, base, []Result{{Name: "FlowChip/s9234", Metrics: map[string]float64{"ns/op": 1000}}})

	ok := filepath.Join(dir, "ok.json")
	writeReport(t, ok, []Result{{Name: "FlowChip/s9234", Metrics: map[string]float64{"ns/op": 1200}}})
	if err := compare(base, ok, "FlowChip/s9234", []string{"ns/op"}, 1.25); err != nil {
		t.Fatalf("ratio 1.2 within 1.25 budget, got %v", err)
	}

	bad := filepath.Join(dir, "bad.json")
	writeReport(t, bad, []Result{{Name: "FlowChip/s9234", Metrics: map[string]float64{"ns/op": 1300}}})
	if err := compare(base, bad, "FlowChip/s9234", []string{"ns/op"}, 1.25); err == nil {
		t.Fatal("ratio 1.3 must fail the 1.25 budget")
	}

	if err := compare(base, ok, "FlowChip/missing", []string{"ns/op"}, 1.25); err == nil {
		t.Fatal("missing benchmark must be an error, not a silent pass")
	}
	if err := compare(base, ok, "FlowChip/s9234", []string{"allocs/op"}, 1.25); err == nil {
		t.Fatal("missing metric must be an error, not a silent pass")
	}
}

// TestCompareMultiMetric covers the repeated -metric form: one invocation
// gates several metrics, passes only when all pass, and reports every
// failing gate rather than stopping at the first.
func TestCompareMultiMetric(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeReport(t, base, []Result{{Name: "FlowChip/s9234",
		Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 100}}})

	ok := filepath.Join(dir, "ok.json")
	writeReport(t, ok, []Result{{Name: "FlowChip/s9234",
		Metrics: map[string]float64{"ns/op": 1100, "allocs/op": 100}}})
	if err := compare(base, ok, "FlowChip/s9234", []string{"ns/op", "allocs/op"}, 1.25); err != nil {
		t.Fatalf("both metrics within budget, got %v", err)
	}

	bad := filepath.Join(dir, "bad.json")
	writeReport(t, bad, []Result{{Name: "FlowChip/s9234",
		Metrics: map[string]float64{"ns/op": 1400, "allocs/op": 150}}})
	err := compare(base, bad, "FlowChip/s9234", []string{"ns/op", "allocs/op"}, 1.25)
	if err == nil {
		t.Fatal("two regressed metrics must fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "ns/op") || !strings.Contains(msg, "allocs/op") {
		t.Fatalf("joined error must name every failing gate, got %q", msg)
	}

	mixed := filepath.Join(dir, "mixed.json")
	writeReport(t, mixed, []Result{{Name: "FlowChip/s9234",
		Metrics: map[string]float64{"ns/op": 1100, "allocs/op": 150}}})
	err = compare(base, mixed, "FlowChip/s9234", []string{"ns/op", "allocs/op"}, 1.25)
	if err == nil {
		t.Fatal("one regressed metric must fail the whole invocation")
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("error must name the regressed metric, got %q", err)
	}
}

// TestCompareMedians covers reports holding repeated lines of a benchmark
// (interleaved same-runner rounds): the gate is the ratio of medians, so
// one slow round on either side neither fails nor hides a regression.
func TestCompareMedians(t *testing.T) {
	dir := t.TempDir()
	runs := func(name string, vs ...float64) string {
		path := filepath.Join(dir, name)
		var rs []Result
		for _, v := range vs {
			rs = append(rs, Result{Name: "FlowChip/s9234", Metrics: map[string]float64{"ns/op": v}})
		}
		writeReport(t, path, rs)
		return path
	}
	base := runs("base.json", 1000, 1010, 990, 5000, 1005) // median 1005

	// A slow first round would fail a first-line comparison (3000/1000).
	ok := runs("ok.json", 3000, 1100, 1200, 1150, 900) // median 1100
	if err := compare(base, ok, "FlowChip/s9234", []string{"ns/op"}, 1.25); err != nil {
		t.Fatalf("median ratio 1.09 within 1.25, got %v", err)
	}
	// A fast first round would hide a regression from one (900/1000).
	bad := runs("bad.json", 900, 1300, 1350, 1290, 1400) // median 1300
	if err := compare(base, bad, "FlowChip/s9234", []string{"ns/op"}, 1.25); err == nil {
		t.Fatal("median ratio 1.29 must fail the 1.25 budget")
	}
	// An even count takes the mean of the two middle values.
	even := runs("even.json", 1000, 1500, 1100, 1600) // median 1300
	if err := compare(base, even, "FlowChip/s9234", []string{"ns/op"}, 1.25); err == nil {
		t.Fatal("even-count median 1300 (ratio 1.29) must fail the 1.25 budget")
	}
}
