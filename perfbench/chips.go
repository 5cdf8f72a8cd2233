package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"effitest"
	"effitest/fleet/httpapi"
)

// chipWorkers is the in-process engines' worker count: one per Go
// processor, so a stage's span time is time on the CPU, not time shared
// with another worker.
const chipWorkers = 1

// setupTimes are the timed calls of the engine set-ups: each call's wall
// time, and the whole set-up's wall and normalised time (calib.go).
type setupTimes struct{ generate, prepare, sample, total, norm []float64 }

func (t *setupTimes) report(v values) {
	v["circuit.generate_s"] = median(t.generate)
	v["core.prepare_s"] = median(t.prepare)
	v["tester.sample_s"] = median(t.sample)
}

// setUp times one engine set-up: build the circuit, construct the engine
// (cold Prepare and period calibration) and sample the chips [first,
// first+n) of the seed's population.
func setUp(ctx context.Context, t *setupTimes, build func() (*effitest.Circuit, error), seed int64, first, n int, opts ...effitest.Option) (*effitest.Engine, []*effitest.Chip, error) {
	c0 := calibrate()
	t0 := time.Now()
	c, err := build()
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	eng, err := effitest.NewCtx(ctx, c, opts...)
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	chips, err := eng.SampleChipRange(ctx, seed, first, n)
	if err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	t.generate = append(t.generate, t1.Sub(t0).Seconds())
	t.prepare = append(t.prepare, t2.Sub(t1).Seconds())
	t.sample = append(t.sample, t3.Sub(t2).Seconds())
	t.total = append(t.total, t3.Sub(t0).Seconds())
	t.norm = append(t.norm, normalise(t3.Sub(t0), (c0+calibrate())/2).Seconds())
	return eng, chips, nil
}

// digestAll runs the chips on eng and digests the outcomes in order;
// per-chip errors count as failures.
func digestAll(ctx context.Context, eng *effitest.Engine, chips []*effitest.Chip) ([]digest, int) {
	want := make([]digest, 0, len(chips))
	failed := 0
	for r := range eng.RunChips(ctx, chips) {
		if r.Err != nil {
			failed++
		}
		want = append(want, digestResult(r))
	}
	return want, failed
}

// campaigns is the record of repeated RunChips calls: each call's wall
// time, the same normalised (calib.go), and the calibrations between calls.
type campaigns struct {
	durs, norm, cals []time.Duration
	lot              int
	alloc            uint64 // bytes allocated during the calls
	attempted        int
	failed           int
}

func (cs *campaigns) wall() (w time.Duration) {
	for _, d := range cs.durs {
		w += d
	}
	return w
}

// chipsPerS is the median campaign throughput over the given campaign
// times (cs.durs or cs.norm).
func (cs *campaigns) chipsPerS(durs []time.Duration) float64 {
	rates := make([]float64, len(durs))
	for i, d := range durs {
		rates[i] = float64(cs.lot) / d.Seconds()
	}
	return median(rates)
}

// runCampaigns runs the population through eng as campaigns of lot chips
// each — one RunChips call per lot, cycling through the population's
// lots — until window has elapsed (at least once). Only the RunChips calls
// are timed, each normalised by the calibrations before and after it; each
// campaign's outcomes are checked against want afterwards. l, when
// non-nil, gets a span per campaign.
func runCampaigns(ctx context.Context, eng *effitest.Engine, chips []*effitest.Chip, want []digest, lot int, window time.Duration, l *ledger) campaigns {
	cs := campaigns{lot: lot}
	var m0, m1 runtime.MemStats
	got := make([]effitest.ChipResult, 0, lot)
	d := make([]digest, lot)
	cal := calibrate()
	cs.cals = append(cs.cals, cal)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < window; k++ {
		first := k % (len(chips) / lot) * lot
		got = got[:0]
		runtime.ReadMemStats(&m0)
		t := time.Now()
		sp := 0
		if l != nil {
			sp = l.openSpan("campaign", fmt.Sprintf("lot-%d", k), t)
		}
		for r := range eng.RunChips(ctx, chips[first:first+lot]) {
			got = append(got, r)
		}
		end := time.Now()
		if l != nil {
			l.closeSpan(sp, end)
		}
		runtime.ReadMemStats(&m1)
		after := calibrate()
		cs.durs = append(cs.durs, end.Sub(t))
		cs.norm = append(cs.norm, normalise(end.Sub(t), (cal+after)/2))
		cs.cals = append(cs.cals, after)
		cal = after
		cs.alloc += m1.TotalAlloc - m0.TotalAlloc
		for i, r := range got {
			d[i] = digestResult(r)
		}
		cs.attempted += lot
		cs.failed += mismatches(want[first:first+lot], d[:len(got)])
	}
	return cs
}

// chipsWorkload is the in-process workload on the named Table-1 circuit:
// Engine.RunChips over a fixed chip population, campaign by campaign, on
// chipWorkers workers with the default configuration.
func chipsWorkload(circuit string) func(context.Context, params) (*outcome, error) {
	return func(ctx context.Context, p params) (*outcome, error) {
		pop := p.sz.inProcess[circuit]
		return runChips(ctx, p, circuit, pop.chips, pop.lot)
	}
}

func runChips(ctx context.Context, p params, circuit string, n, lot int) (*outcome, error) {
	prof, ok := effitest.ProfileByName(circuit)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", circuit)
	}
	build := func() (*effitest.Circuit, error) { return effitest.Generate(prof, genSeed) }
	var st setupTimes
	var eng *effitest.Engine
	var chips []*effitest.Chip
	for range p.sz.setupReps {
		var err error
		if eng, chips, err = setUp(ctx, &st, build, p.seed, 0, n, effitest.WithWorkers(chipWorkers)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	// The reference: a separately prepared one-worker engine.
	ref, err := effitest.NewCtx(ctx, eng.Circuit(), effitest.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	want, refFailed := digestAll(ctx, ref, chips)
	if p.tamper != nil {
		p.tamper(want)
	}
	o := &outcome{v: values{}, attempted: len(chips), failed: refFailed}
	o.v["yield_pct"], o.v["tester_iters_per_chip"] = populationStats(want)
	o.v["setup_s"] = median(st.norm)
	o.v["wall.setup_s"] = median(st.total)

	window := p.window
	if p.trace {
		window /= 2
	}
	plain := runCampaigns(ctx, eng, chips, want, lot, window, nil)
	o.attempted += plain.attempted
	o.failed += plain.failed
	latencyMetrics(o.v, ms(plain.norm), ms(plain.durs), ms(plain.cals))
	o.v["norm_chips_per_s"] = plain.chipsPerS(plain.norm)
	o.v["wall.chips_per_s"] = plain.chipsPerS(plain.durs)
	o.v["alloc_kb_per_chip"] = float64(plain.alloc) / 1024 / float64(plain.attempted)
	if !p.trace {
		return o, nil
	}

	// Traced pass: the same plan and period on an engine whose observer
	// feeds the stage ledger.
	l := newLedger()
	traced, err := effitest.NewCtx(ctx, eng.Circuit(), effitest.WithPlan(eng.Plan()),
		effitest.WithPeriod(eng.Period()), effitest.WithWorkers(chipWorkers), effitest.WithObserver(l.observer(0)))
	if err != nil {
		return nil, fmt.Errorf("traced engine: %w", err)
	}
	l.start()
	tp := runCampaigns(ctx, traced, chips, want, lot, window, l)
	sums := l.stop()
	o.attempted += tp.attempted
	o.failed += tp.failed
	if err := stageMetrics(o.v, sums, chipWorkers, tp.wall()); err != nil {
		return nil, err
	}
	o.v["trace_overhead_pct"] = 100 * (1 - ratio(tp.chipsPerS(tp.norm), plain.chipsPerS(plain.norm)))
	st.report(o.v)
	spec := httpapi.CircuitSpec{Profile: circuit, GenSeed: genSeed}
	if err := probeSubmitPath(ctx, o.v, p, spec, eng, chips[0]); err != nil {
		return nil, err
	}
	for _, name := range fleetLayers {
		o.v[name] = 0
	}
	return o, l.writeTrace(filepath.Join(p.out, "trace.ndjson"))
}
