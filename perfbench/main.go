// Command perfbench is the repository benchmark. It runs one workload of
// the EffiTest flow for a fixed time, checks every chip outcome against a
// one-worker in-process reference, and prints one JSON result line: the
// end-to-end metrics (--trace 0) or the per-layer stage ledger (--trace 1).
//
//	perfbench --workload chips-usb_funct --seed 1 --seconds 10 --trace 0
//
// Run it through run.sh, which builds it from the checkout; README.md
// describes the workloads and how to read the ledger.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// genSeed is the generator seed of every benchmark circuit: the circuits
// are fixed, the --seed argument draws the chip populations.
const genSeed = 1

// population is an in-process workload's chip population and the chips
// per campaign (one RunChips call).
type population struct{ chips, lot int }

// sizes are the input sizes of a run.
type sizes struct {
	inProcess map[string]population // by circuit
	fleetLot  int                   // chips per fleet campaign
	fleetPops int                   // distinct fleet campaign populations
	setupReps int                   // set-ups per run; setup_s is their median
	campaigns int                   // fleet campaigns a measured window needs at least
	probeReps int                   // repetitions of each unit probe
}

// fullSizes are the benchmark's sizes. The gated in-process campaigns take
// about 0.2 s: long enough that the host's millisecond stalls average out
// within a campaign instead of setting its p90, short enough for over 100
// campaigns in a run.
var fullSizes = sizes{
	inProcess: map[string]population{"s38584": {256, 64}, "s9234": {2048, 512}, "usb_funct": {512, 16}},
	fleetLot:  16,
	fleetPops: 64,
	setupReps: 5,
	campaigns: 100,
	probeReps: 16,
}

// params is one run's configuration.
type params struct {
	workload string
	seed     int64
	window   time.Duration // measured time
	trace    bool
	out      string // directory for journals and trace files
	sz       sizes
	// tamper, when set, is applied to the reference digests before any
	// output is checked against them.
	tamper func([]digest)
}

// outcome is what a workload measured.
type outcome struct {
	v                 values
	attempted, failed int
}

// workloads are the runnable workloads. BENCHMARK.json gates all but
// chips-s38584 (see README.md).
var workloads = map[string]func(context.Context, params) (*outcome, error){
	"chips-s38584":    chipsWorkload("s38584"),
	"chips-s9234":     chipsWorkload("s9234"),
	"chips-usb_funct": chipsWorkload("usb_funct"),
	"fleet-s9234":     runFleet,
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed: draws the chip populations")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for journals and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*wl]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	// One processor: the Go code of a run executes one goroutine at a
	// time, so a neighbour taking one of a shared host's CPUs does not
	// move the timings (README.md, "Noise").
	runtime.GOMAXPROCS(1)
	p := params{
		workload: *wl,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		out:      filepath.Join(*out, "perfbench", *wl),
		sz:       fullSizes,
	}
	res, err := measure(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", p.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed the output check\n", p.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measure runs the workload in a fresh work directory and assembles the
// result line.
func measure(ctx context.Context, p params) (*result, error) {
	if err := os.RemoveAll(p.out); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(p.out, "journal"))
	o, err := workloads[p.workload](ctx, p)
	if err != nil {
		return nil, err
	}
	o.v["error_rate"] = ratio(float64(o.failed), float64(o.attempted))
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	m, err := pick(o.v, defs)
	if err != nil {
		return nil, err
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}
