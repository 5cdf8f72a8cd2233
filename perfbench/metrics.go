package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef is one reported metric, as BENCHMARK.json lists it.
type metricDef struct{ Name, Unit, Better string }

// endToEnd are the metrics a user of the flow sees, printed by an
// untraced run (--trace 0). The timings are normalised to the reference
// CPU (calib.go); the wall-clock values are per-layer metrics.
var endToEnd = []metricDef{
	{"norm_chips_per_s", "1/s", "higher"},
	{"norm_campaign_p50_ms", "ms", "lower"},
	{"norm_campaign_p90_ms", "ms", "lower"},
	{"tester_iters_per_chip", "count", "lower"},
	{"yield_pct", "%", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_chip", "KiB", "lower"},
}

// perLayer are the stage-ledger metrics, printed by a traced run
// (--trace 1). A layer a workload does not exercise reads 0 there.
// README.md maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	{"core.align.ms_per_chip", "ms", "lower"},
	{"core.align.solves_per_chip", "count", "lower"},
	{"core.align.share_pct", "%", "lower"},
	{"tester.step.ms_per_chip", "ms", "lower"},
	{"tester.steps_per_chip", "count", "lower"},
	{"tester.step.share_pct", "%", "lower"},
	{"core.predict.ms_per_chip", "ms", "lower"},
	{"core.predict.paths_per_chip", "count", "lower"},
	{"core.predict.share_pct", "%", "lower"},
	{"core.configure.ms_per_chip", "ms", "lower"},
	{"core.configure.share_pct", "%", "lower"},
	{"engine.chip_p50_ms", "ms", "lower"},
	{"engine.chip_p99_ms", "ms", "lower"},
	{"engine.worker_busy_frac", "ratio", "higher"},
	{"circuit.generate_s", "s", "lower"},
	{"core.prepare_s", "s", "lower"},
	{"tester.sample_s", "s", "lower"},
	{"httpapi.submit_p50_ms", "ms", "lower"},
	{"httpapi.submit_p90_ms", "ms", "lower"},
	{"httpapi.results_p50_ms", "ms", "lower"},
	{"httpapi.stats_p50_ms", "ms", "lower"},
	{"httpapi.requests_per_campaign", "count", "lower"},
	{"circuit.build_ms", "ms", "lower"},
	{"circuit.fingerprint_ms", "ms", "lower"},
	{"coord.start_p50_ms", "ms", "lower"},
	{"coord.wait_p50_ms", "ms", "lower"},
	{"fleet.queue_wait_p50_ms", "ms", "lower"},
	{"fleet.exec_p50_ms", "ms", "lower"},
	{"fleet.worker_busy_frac", "ratio", "higher"},
	{"fleet.registry.hit_ratio", "ratio", "higher"},
	{"fleet.registry.prepares", "count", "lower"},
	{"journal.records_per_chip", "count", "lower"},
	{"journal.bytes_per_chip", "bytes", "lower"},
	{"journal.append_us", "us", "lower"},
	{"error_rate", "ratio", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"wall.chips_per_s", "1/s", "higher"},
	{"wall.campaign_p50_ms", "ms", "lower"},
	{"wall.campaign_p90_ms", "ms", "lower"},
	{"wall.setup_s", "s", "lower"},
}

// fleetLayers are the per-layer metrics only the fleet workload exercises;
// the in-process workloads report them as 0.
var fleetLayers = []string{
	"httpapi.submit_p50_ms", "httpapi.submit_p90_ms", "httpapi.results_p50_ms",
	"httpapi.stats_p50_ms", "httpapi.requests_per_campaign",
	"coord.start_p50_ms", "coord.wait_p50_ms",
	"fleet.queue_wait_p50_ms", "fleet.exec_p50_ms", "fleet.worker_busy_frac",
	"fleet.registry.hit_ratio", "fleet.registry.prepares",
	"journal.records_per_chip", "journal.bytes_per_chip",
}

// metric is one value on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects a run's measurements by metric name.
type values map[string]float64

// pick builds the result's metric set from defs, failing on any metric
// the run did not measure or on a non-finite value.
func pick(v values, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, x)
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	return out, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// latencyMetrics records the campaign latencies, normalised and wall, and
// the host's calibration time.
func latencyMetrics(v values, norm, wall, cals []float64) {
	v["norm_campaign_p50_ms"] = median(norm)
	v["norm_campaign_p90_ms"] = quantile(norm, 0.9)
	v["wall.campaign_p50_ms"] = median(wall)
	v["wall.campaign_p90_ms"] = quantile(wall, 0.9)
	v["host.calib_ms"] = median(cals)
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
