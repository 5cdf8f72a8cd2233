package effitest_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"effitest"
)

func TestPublicQuickstartFlow(t *testing.T) {
	profile := effitest.NewProfile("facade", 30, 300, 3, 36)
	c, err := effitest.Generate(profile, 1)
	if err != nil {
		t.Fatal(err)
	}
	td := effitest.PeriodQuantile(c, 9, 400, 0.9)
	eng, err := effitest.New(c, effitest.WithPeriod(td))
	if err != nil {
		t.Fatal(err)
	}
	plan := eng.Plan()
	if plan.NumTested() == 0 || plan.NumTested() >= c.NumPaths() {
		t.Fatalf("npt = %d", plan.NumTested())
	}
	chip := effitest.SampleChip(c, 2, 0)
	out, err := eng.RunChip(context.Background(), chip)
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations <= 0 {
		t.Fatal("no tester iterations")
	}
}

func TestPublicFigure2(t *testing.T) {
	arcs := []effitest.Timing{
		{From: 0, To: 1, Setup: 3, Hold: -3},
		{From: 1, To: 2, Setup: 8, Hold: -8},
		{From: 2, To: 3, Setup: 5, Hold: -5},
		{From: 3, To: 0, Setup: 6, Hold: -6},
	}
	min, ok := effitest.MinPeriodUnconstrained(4, arcs)
	if !ok || math.Abs(min-5.5) > 1e-9 {
		t.Fatalf("min period = %v, want 5.5 (paper Figure 2)", min)
	}
	b := effitest.UniformBuffers(4, []int{0, 1, 2, 3}, -4, 4, 0)
	if _, ok := effitest.FeasibleSkews(5.5, arcs, b); !ok {
		t.Fatal("5.5 must be feasible with buffers")
	}
	if _, ok := effitest.FeasibleSkews(5.49, arcs, b); ok {
		t.Fatal("5.49 must be infeasible")
	}
}

func TestPublicNetlistRoundTrip(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("rt", 20, 160, 2, 20), 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := effitest.WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := effitest.ParseNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPaths() != c.NumPaths() || got.TNominal != c.TNominal {
		t.Fatal("round trip lost data")
	}
}

func TestPublicProfiles(t *testing.T) {
	ps := effitest.Profiles()
	if len(ps) != 8 {
		t.Fatalf("expected 8 benchmark profiles, got %d", len(ps))
	}
	if _, ok := effitest.ProfileByName("pci_bridge32"); !ok {
		t.Fatal("pci_bridge32 missing")
	}
}

func TestPublicBaselines(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("bl", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := effitest.DefaultConfig()
	chip := effitest.SampleChip(c, 5, 0)
	all := make([]int, c.NumPaths())
	for i := range all {
		all[i] = i
	}
	a1 := effitest.NewATE(chip, cfg.TesterResolution)
	pw, _, err := effitest.PathwiseTest(a1, c, all, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2 := effitest.NewATE(chip, cfg.TesterResolution)
	al, _, err := effitest.MultiplexTest(a2, c, all, effitest.NoHoldBounds, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if al >= pw {
		t.Fatalf("aligned multiplexing (%d) did not beat path-wise (%d)", al, pw)
	}
}

func TestPublicHoldBounds(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("hb", 24, 200, 3, 24), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := effitest.DefaultConfig()
	cfg.HoldSamples = 100
	hb, err := effitest.ComputeHoldBounds(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if y := effitest.HoldYieldEstimate(c, hb, cfg); y < cfg.HoldYield-1e-9 {
		t.Fatalf("hold yield %v below target", y)
	}
}
