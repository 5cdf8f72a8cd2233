package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"effitest"
	"effitest/fleet/httpapi"
	"effitest/fleet/journal"
)

// probeSubmitPath times, on the workload's own inputs, the calls a daemon
// makes for every campaign it admits and every chip it finishes: building
// the circuit from its wire spec, fingerprinting it, and the journal's
// Begin / AppendChip / Settle (without fsync, as the fleet's daemons run
// it here, in the run's directory).
// This attributes the fleet submit path's cost without instrumenting the
// daemon.
func probeSubmitPath(ctx context.Context, v values, p params, spec httpapi.CircuitSpec, eng *effitest.Engine, ch *effitest.Chip) error {
	var build, fp []time.Duration
	var c *effitest.Circuit
	for range p.sz.probeReps {
		t := time.Now()
		var err error
		if c, err = spec.Build(); err != nil {
			return fmt.Errorf("probe build: %w", err)
		}
		build = append(build, time.Since(t))
	}
	var cfp string
	for range p.sz.probeReps {
		t := time.Now()
		var err error
		if cfp, err = effitest.CircuitFingerprint(c); err != nil {
			return fmt.Errorf("probe fingerprint: %w", err)
		}
		fp = append(fp, time.Since(t))
	}
	v["circuit.build_ms"] = median(ms(build))
	v["circuit.fingerprint_ms"] = median(ms(fp))

	out, err := eng.RunChip(ctx, ch)
	if err != nil {
		return fmt.Errorf("probe chip: %w", err)
	}
	rec := journal.ChipRecord{ChipIndex: ch.Index, Outcome: &journal.Outcome{
		Iterations: out.Iterations, ScanBits: out.ScanBits,
		AlignNS: int64(out.AlignDuration), ConfigNS: int64(out.ConfigDuration), PredictNS: int64(out.PredictDuration),
		BoundsLo: out.Bounds.Lo, BoundsHi: out.Bounds.Hi,
		X: out.X, Xi: out.Xi, Configured: out.Configured, Passed: out.Passed,
	}}
	payload, err := json.Marshal(httpapi.CampaignRequest{Name: "probe", Circuit: spec,
		Chips: httpapi.ChipSpec{Seed: p.seed, Count: p.sz.fleetLot}})
	if err != nil {
		return err
	}
	j, err := journal.Open(filepath.Join(p.out, "journal", "probe"), journal.WithoutSync())
	if err != nil {
		return err
	}
	defer j.Close()
	var ops []time.Duration
	timed := func(f func() error) error {
		t := time.Now()
		err := f()
		ops = append(ops, time.Since(t))
		return err
	}
	for k := range p.sz.probeReps {
		id := fmt.Sprintf("probe-%d", k)
		sp := journal.Spec{ID: id, Name: "probe", CircuitFP: cfp, ConfigFP: eng.ConfigFingerprint(),
			ChipSeed: p.seed, ChipCount: p.sz.fleetLot, Payload: payload}
		if err := timed(func() error { return j.Begin(sp) }); err != nil {
			return fmt.Errorf("probe journal: %w", err)
		}
		for i := range p.sz.fleetLot {
			rec.Index = i
			if err := timed(func() error { return j.AppendChip(id, rec) }); err != nil {
				return fmt.Errorf("probe journal: %w", err)
			}
		}
		if err := timed(func() error { return j.Settle(id, "done", "") }); err != nil {
			return fmt.Errorf("probe journal: %w", err)
		}
	}
	v["journal.append_us"] = median(ms(ops)) * 1000
	return j.Close()
}
