// Package yield evaluates manufacturing yield under the three regimes the
// paper compares: no tuning buffers, buffers configured from a perfect
// delay measurement (yi), and buffers configured by the EffiTest flow (yt).
// The Monte-Carlo loops fan out across the engine's worker pool; every
// aggregate is reduced in chip order, so results are identical at any
// worker count.
package yield

import (
	"context"
	"time"

	"effitest/internal/circuit"
	"effitest/internal/core"
	"effitest/internal/pool"
	"effitest/internal/skew"
	"effitest/internal/stats"
	"effitest/internal/tester"
)

// PeriodQuantile returns the q-quantile of the no-tuning critical delay
// (max realized path delay) over n Monte-Carlo chips. The paper's T1 and T2
// are the 0.5 and 0.8413 quantiles ("the original yields without buffers
// were 50% and 84.13%").
func PeriodQuantile(c *circuit.Circuit, seed int64, n int, q float64) float64 {
	v, _ := PeriodQuantileCtx(context.Background(), c, seed, n, q, 0)
	return v
}

// PeriodQuantileCtx is PeriodQuantile with cancellation and an explicit
// worker count (0 = all CPUs). Chip i is deterministic in (seed, i), so the
// quantile does not depend on the worker count.
func PeriodQuantileCtx(ctx context.Context, c *circuit.Circuit, seed int64, n int, q float64, workers int) (float64, error) {
	xs := make([]float64, n)
	err := pool.ForEach(ctx, n, workers, func(i int) error {
		xs[i] = tester.SampleChip(c, seed, i).CriticalDelay()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return stats.Quantile(xs, q), nil
}

// NoBuffer returns the fraction of chips meeting period T with all buffers
// at zero.
func NoBuffer(chips []*tester.Chip, T float64) float64 {
	if len(chips) == 0 {
		return 0
	}
	pass := 0
	for _, ch := range chips {
		zeros := make([]float64, ch.Circuit.NumFF)
		if ch.PassesAt(T, zeros) && ch.HoldOK(zeros) {
			pass++
		}
	}
	return float64(pass) / float64(len(chips))
}

// Ideal returns the yield with perfect delay measurement: a chip counts when
// a discrete buffer assignment exists for its exact realized delays (setup
// at T, true hold bounds, buffer ranges and lattice).
func Ideal(c *circuit.Circuit, chips []*tester.Chip, T float64) float64 {
	v, _ := IdealCtx(context.Background(), c, chips, T, 0)
	return v
}

// IdealCtx is Ideal with cancellation and an explicit worker count. The
// per-chip feasibility checks are independent, so the yield is identical at
// any worker count.
func IdealCtx(ctx context.Context, c *circuit.Circuit, chips []*tester.Chip, T float64, workers int) (float64, error) {
	if len(chips) == 0 {
		return 0, nil
	}
	ok := make([]bool, len(chips))
	err := pool.ForEach(ctx, len(chips), workers, func(i int) error {
		ch := chips[i]
		if x, feasible := skew.FeasibleDiscrete(T, ch.Arcs(), c.Buf); feasible {
			// FeasibleDiscrete guarantees constraint satisfaction; double
			// check against the chip oracle for defense in depth.
			ok[i] = ch.PassesAt(T, x) && ch.HoldOK(x)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	pass := 0
	for _, v := range ok {
		if v {
			pass++
		}
	}
	return float64(pass) / float64(len(chips)), nil
}

// ProposedStats aggregates the per-chip outcomes of the EffiTest flow.
type ProposedStats struct {
	Yield          float64
	AvgIterations  float64
	AvgScanBits    float64
	AvgAlignTime   time.Duration
	AvgConfigTime  time.Duration
	ConfiguredFrac float64
}

// CurvePoint is one sample of a yield-versus-period curve.
type CurvePoint struct {
	T        float64
	NoBuffer float64
	Ideal    float64
}

// Curve sweeps the clock period from loT to hiT in steps and evaluates the
// no-buffer and ideal-tuning yields at each point — the shmoo-style view of
// what tuning buys across the frequency range. Steps are evaluated in
// parallel on every CPU.
func Curve(c *circuit.Circuit, chips []*tester.Chip, loT, hiT float64, steps int) []CurvePoint {
	out, _ := CurveCtx(context.Background(), c, chips, loT, hiT, steps, 0)
	return out
}

// CurveCtx is Curve with cancellation and an explicit worker count.
func CurveCtx(ctx context.Context, c *circuit.Circuit, chips []*tester.Chip, loT, hiT float64, steps, workers int) ([]CurvePoint, error) {
	if steps < 2 {
		steps = 2
	}
	out := make([]CurvePoint, steps)
	err := pool.ForEach(ctx, steps, workers, func(i int) error {
		T := loT + (hiT-loT)*float64(i)/float64(steps-1)
		ideal, err := IdealCtx(ctx, c, chips, T, 1)
		if err != nil {
			return err
		}
		out[i] = CurvePoint{T: T, NoBuffer: NoBuffer(chips, T), Ideal: ideal}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ProposedOpts runs the full EffiTest flow (aligned test, prediction,
// configuration, final pass/fail) on every chip and aggregates yield and
// tester cost, with a pluggable measurement backend and event observer.
// Chips fan out across the plan's worker pool (Config.Workers); the
// aggregation is a sequential fold through Agg over the ordered result
// stream, so the stats are bit-identical to a sequential run, and a sharded
// fleet reducing through Agg.Merge lands on the identical stats.
func ProposedOpts(ctx context.Context, plan *core.Plan, chips []*tester.Chip, T float64, opts core.RunOptions) (ProposedStats, error) {
	if len(chips) == 0 {
		return ProposedStats{}, nil
	}
	outs, err := plan.RunChipsAllOpts(ctx, chips, T, plan.Cfg.Workers, opts)
	if err != nil {
		return ProposedStats{}, err
	}
	var agg Agg
	for _, out := range outs {
		agg.Observe(out)
	}
	return agg.Stats(), nil
}
