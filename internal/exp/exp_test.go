package exp

import (
	"context"
	"strings"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/core"
)

// fastCfg shrinks chip counts so the harness itself can be unit-tested.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.CostChips = 4
	cfg.YieldChips = 40
	cfg.Fig8Chips = 1
	cfg.QuantileChips = 200
	return cfg
}

func TestTable1ShapeTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo-heavy experiment test skipped in -short mode")
	}
	p, _ := circuit.ProfileByName("s9234")
	row, err := Table1(context.Background(), p, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if row.NS != 211 || row.NG != 5597 || row.NB != 2 || row.NP != 80 {
		t.Fatalf("circuit statistics wrong: %+v", row)
	}
	if row.NPT <= 0 || row.NPT >= row.NP {
		t.Fatalf("npt = %d out of range", row.NPT)
	}
	// The headline reproduction target: ≥ 94% iteration reduction.
	if row.RA < 94 {
		t.Fatalf("ra = %.2f%%, want ≥ 94%% (paper: 94.71%%)", row.RA)
	}
	// Path-wise cost is a binary search: ≈ 8–10 iterations per path.
	if row.TPV < 7 || row.TPV > 11 {
		t.Fatalf("t'v = %.2f, want ≈ 8–10", row.TPV)
	}
	// Aligned multiplexed testing must beat path-wise per tested path too.
	if row.TV >= row.TPV {
		t.Fatalf("tv %.2f not below t'v %.2f", row.TV, row.TPV)
	}
	if row.ConfiguredFraction < 0.75 {
		t.Fatalf("only %.2f of chips configurable", row.ConfiguredFraction)
	}
}

func TestTable2ShapeTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo-heavy experiment test skipped in -short mode")
	}
	p, _ := circuit.ProfileByName("s9234")
	cfg := fastCfg()
	cfg.YieldChips = 120
	row, err := Table2(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.T2 <= row.T1 {
		t.Fatal("T2 must exceed T1")
	}
	// Base yields calibrate to 50 / 84.13 (±MC noise at 120 chips).
	if row.T1NoBuffer < 35 || row.T1NoBuffer > 65 {
		t.Fatalf("T1 base yield %.1f%% far from 50%%", row.T1NoBuffer)
	}
	if row.T2NoBuffer < 72 || row.T2NoBuffer > 95 {
		t.Fatalf("T2 base yield %.1f%% far from 84%%", row.T2NoBuffer)
	}
	// Tuning must beat no-buffer yield; proposed must not beat ideal.
	if row.T1YI < row.T1NoBuffer {
		t.Fatalf("ideal %v below no-buffer %v at T1", row.T1YI, row.T1NoBuffer)
	}
	if row.T1YT > row.T1YI+1e-9 || row.T2YT > row.T2YI+1e-9 {
		t.Fatal("proposed yield beats ideal — impossible")
	}
	// Yield drop stays moderate (paper: 0.2–2.4%; allow MC noise).
	if row.T1YR > 15 || row.T2YR > 15 {
		t.Fatalf("yield drops too large: %.1f / %.1f", row.T1YR, row.T2YR)
	}
}

func TestFig7ShapeTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo-heavy experiment test skipped in -short mode")
	}
	p, _ := circuit.ProfileByName("s9234")
	cfg := fastCfg()
	cfg.YieldChips = 80
	row, err := Fig7(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inflated randomness: buffered cases must still beat no-buffer clearly.
	if row.Ideal < row.NoBuffer {
		t.Fatalf("ideal %v below no-buffer %v", row.Ideal, row.NoBuffer)
	}
	if row.Proposed > row.Ideal+1e-9 {
		t.Fatal("proposed beats ideal")
	}
}

func TestFig8Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo-heavy experiment test skipped in -short mode")
	}
	p, _ := circuit.ProfileByName("s9234")
	row, err := Fig8(context.Background(), p, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if row.Pathwise < 7 || row.Pathwise > 11 {
		t.Fatalf("path-wise %.2f per path, want ≈ 8–10", row.Pathwise)
	}
	if row.Multiplex >= row.Pathwise {
		t.Fatalf("multiplexing %.2f not below path-wise %.2f", row.Multiplex, row.Pathwise)
	}
	if row.Proposed > row.Multiplex+1e-9 {
		t.Fatalf("alignment %.2f worse than multiplexing %.2f", row.Proposed, row.Multiplex)
	}
}

func TestProfilesResolution(t *testing.T) {
	ps, err := Profiles(nil)
	if err != nil || len(ps) != 8 {
		t.Fatalf("default profiles: %d, %v", len(ps), err)
	}
	ps, err = Profiles([]string{"s9234", "mem_ctrl"})
	if err != nil || len(ps) != 2 {
		t.Fatalf("named profiles: %v", err)
	}
	if _, err := Profiles([]string{"bogus"}); err == nil {
		t.Fatal("unknown circuit should error")
	}
	ps, err = Profiles([]string{"all"})
	if err != nil || len(ps) != 8 {
		t.Fatal("all should expand")
	}
}

func TestFormatters(t *testing.T) {
	t1 := []Table1Row{{Circuit: "s9234", NS: 211, NG: 5597, NB: 2, NP: 80, NPT: 10,
		TA: 30, TV: 3, TPA: 700, TPV: 8.75, RA: 95.7, RV: 65.7, TP: 1, TT: 0.01, TS: 0.001}}
	out := FormatTable1(t1)
	if !strings.Contains(out, "s9234") || !strings.Contains(out, "paper") {
		t.Fatal("Table 1 rendering missing rows")
	}
	t2 := []Table2Row{{Circuit: "s9234", T1YI: 77, T1YT: 75, T1YR: 2, T2YI: 95, T2YT: 94, T2YR: 1}}
	if out := FormatTable2(t2); !strings.Contains(out, "s9234") {
		t.Fatal("Table 2 rendering broken")
	}
	if out := FormatFig7([]Fig7Row{{Circuit: "x", NoBuffer: 50, Proposed: 80, Ideal: 85}}); !strings.Contains(out, "x") {
		t.Fatal("Fig 7 rendering broken")
	}
	if out := FormatFig8([]Fig8Row{{Circuit: "x", Pathwise: 9, Multiplex: 5, Proposed: 3}}); !strings.Contains(out, "x") {
		t.Fatal("Fig 8 rendering broken")
	}
}

func TestPaperValuesComplete(t *testing.T) {
	for _, p := range circuit.Table1Profiles {
		r1, ok := PaperTable1[p.Name]
		if !ok {
			t.Fatalf("missing paper Table 1 row for %s", p.Name)
		}
		if r1.NS != p.NumFF || r1.NG != p.NumGates || r1.NB != p.NumBuffers || r1.NP != p.NumPaths {
			t.Fatalf("%s: paper row disagrees with profile", p.Name)
		}
		if _, ok := PaperTable2[p.Name]; !ok {
			t.Fatalf("missing paper Table 2 row for %s", p.Name)
		}
	}
}

// Figure 7 must read the same plan from a warm plan cache as it prepares
// cold. Its inflated circuit differs from the original only in the paths'
// private Rand terms; the recorded inflation gives it its own fingerprint,
// so a cache warmed with the original's plan (as Table 2 leaves it) misses.
func TestFig7WarmPlanCache(t *testing.T) {
	ctx := context.Background()
	p, _ := circuit.ProfileByName("s9234")
	cfg := fastCfg()
	cold, err := Fig7(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.PlanCache = t.TempDir()
	c, err := circuit.Generate(p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := c.WithInflatedSigma(1.1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := core.NewPlanCache(cfg.PlanCache)
	if err != nil {
		t.Fatal(err)
	}
	ko, err := pc.Key(c, cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	ki, err := pc.Key(inflated, cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	if ko == ki {
		t.Fatal("inflated circuit shares the original's plan-cache key")
	}
	if _, err := preparePlan(ctx, c, cfg); err != nil {
		t.Fatal(err)
	}
	warm, err := Fig7(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm plan cache gives %+v, cold gives %+v", warm, cold)
	}
}
