// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so benchmark results can be committed
// (BENCH_<pr>.json) and the performance trajectory tracked across PRs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x . | benchjson -o BENCH_2.json
//
// Standard columns (iterations, ns/op, B/op, allocs/op) and custom
// b.ReportMetric units (tester_iters, chips/s, ...) all land in the
// per-benchmark metrics map. Non-benchmark lines are ignored, so piping the
// whole `go test` output through is fine.
//
// Compare mode checks a fresh report against a baseline report and exits
// non-zero on a regression — the CI bench-regression job, which records
// both reports on one runner (scripts/bench_ab.sh). A report may hold
// repeated lines of one benchmark (go test -count N, or interleaved
// rounds); the gate is then the ratio of the two medians. -metric repeats,
// so one invocation gates several metrics of the same benchmark (every
// gate is evaluated and every failure reported before exiting):
//
//	benchjson -baseline base.json -bench FlowChip/s9234 -metric ns/op -metric allocs/op -max-ratio 1.25 head.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted document.
type Report struct {
	GoVersion string   `json:"goVersion"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"numCPU"`
	Label     string   `json:"label,omitempty"`
	Results   []Result `json:"results"`
}

// benchLine matches "BenchmarkName-8   123   456 ns/op   7 custom/unit".
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+(.*\S)\s*$`)

func parseLine(line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	r := Result{
		Name:    strings.TrimPrefix(m[1], "Benchmark"),
		Metrics: map[string]float64{},
	}
	if m[2] != "" {
		r.Procs, _ = strconv.Atoi(m[2])
	}
	var err error
	if r.Iterations, err = strconv.ParseInt(m[3], 10, 64); err != nil {
		return Result{}, false
	}
	fields := strings.Fields(m[4])
	if len(fields)%2 != 0 {
		return Result{}, false
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// medianMetric returns the median of one benchmark's metric over every
// line of it in a report, and the number of lines.
func medianMetric(rep *Report, bench, metric string) (float64, int, error) {
	var vs []float64
	for _, r := range rep.Results {
		if r.Name != bench {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			return 0, 0, fmt.Errorf("benchmark %q has no %q metric", bench, metric)
		}
		vs = append(vs, v)
	}
	if len(vs) == 0 {
		return 0, 0, fmt.Errorf("benchmark %q not in report", bench)
	}
	slices.Sort(vs)
	n := len(vs)
	return (vs[(n-1)/2] + vs[n/2]) / 2, n, nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

// compareOne checks one metric of fresh against the baseline: the ratio of
// medians fresh/baseline must stay ≤ maxRatio. Returns an error describing
// the regression, or nil.
func compareOne(base, fresh *Report, baselinePath, freshPath, bench, metric string, maxRatio float64) error {
	bv, bn, err := medianMetric(base, bench, metric)
	if err != nil {
		return fmt.Errorf("baseline %s: %v", baselinePath, err)
	}
	fv, fn, err := medianMetric(fresh, bench, metric)
	if err != nil {
		return fmt.Errorf("fresh %s: %v", freshPath, err)
	}
	if bv <= 0 {
		return fmt.Errorf("baseline %s %s of %s is %v — cannot ratio", bench, metric, baselinePath, bv)
	}
	ratio := fv / bv
	fmt.Printf("benchjson: %s %s: baseline median %.0f (n=%d), fresh median %.0f (n=%d), ratio %.3f (max %.3f)\n",
		bench, metric, bv, bn, fv, fn, ratio, maxRatio)
	if ratio > maxRatio {
		return fmt.Errorf("%s %s regressed: %.3f× the baseline (limit %.3f×)", bench, metric, ratio, maxRatio)
	}
	return nil
}

// compare gates every requested metric of one benchmark in a single
// invocation — CI used to shell out once per metric, re-reading both
// reports each time. All gates are evaluated so a run reports every
// regression, not just the first; the returned error joins them.
func compare(baselinePath, freshPath, bench string, metrics []string, maxRatio float64) error {
	base, err := readReport(baselinePath)
	if err != nil {
		return err
	}
	fresh, err := readReport(freshPath)
	if err != nil {
		return err
	}
	var errs []error
	for _, metric := range metrics {
		if err := compareOne(base, fresh, baselinePath, freshPath, bench, metric, maxRatio); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// metricList collects repeated -metric flags.
type metricList []string

func (m *metricList) String() string { return strings.Join(*m, ",") }
func (m *metricList) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	label := flag.String("label", "", "free-form label recorded in the report (e.g. a PR number)")
	baseline := flag.String("baseline", "", "compare mode: baseline report to diff the positional fresh report against")
	bench := flag.String("bench", "FlowChip/s9234", "compare mode: benchmark name to check")
	var metrics metricList
	flag.Var(&metrics, "metric", "compare mode: metric to check (repeatable; default ns/op)")
	maxRatio := flag.Float64("max-ratio", 1.25, "compare mode: fail when fresh/baseline exceeds this")
	flag.Parse()

	if *baseline != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: compare mode needs exactly one fresh report argument")
			os.Exit(2)
		}
		if len(metrics) == 0 {
			metrics = metricList{"ns/op"}
		}
		if err := compare(*baseline, flag.Arg(0), *bench, metrics, *maxRatio); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	report := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Label:     *label,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			report.Results = append(report.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(report.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d results -> %s\n", len(report.Results), *out)
}
