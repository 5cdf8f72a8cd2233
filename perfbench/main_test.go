package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// tinySizes keep a smoke run of every workload to seconds.
var tinySizes = sizes{
	inProcess: map[string]population{"s38584": {4, 2}, "s9234": {4, 2}, "usb_funct": {4, 2}},
	fleetLot:  2,
	fleetPops: 2,
	setupReps: 1,
	campaigns: 2,
	probeReps: 2,
}

func tinyParams(t *testing.T, workload string, trace bool) params {
	return params{
		workload: workload,
		seed:     3,
		window:   50 * time.Millisecond,
		trace:    trace,
		out:      t.TempDir(),
		sz:       tinySizes,
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line carries every metric with its unit.
func TestSmoke(t *testing.T) {
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := measure(context.Background(), tinyParams(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, d.Name, m, d.Unit)
				}
			}
			if !trace {
				for _, name := range []string{"norm_chips_per_s", "norm_campaign_p50_ms", "setup_s", "tester_iters_per_chip"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptDigestFails checks the output check catches a reference
// digest that no longer matches: the run reports failures and is not
// correct, on the in-process path and on the fleet's merged stream.
func TestCorruptDigestFails(t *testing.T) {
	for _, wl := range workloadNames() {
		p := tinyParams(t, wl, false)
		p.tamper = func(want []digest) { want[1].x ^= 1 }
		res, err := measure(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted digest passed the check (correct=%v failed=%d)", wl, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json names only
// workloads this program runs, and exactly the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", n)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i] != def(w) {
				t.Errorf("%s[%d] = %+v, program has %s %s %s", kind, i, got[i], w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
