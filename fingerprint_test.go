package effitest_test

import (
	"strings"
	"testing"

	"effitest"
)

// SummarizeOptions is the fleet registry's key: flow-shaping settings must
// move the fingerprint, execution knobs must not.
func TestSummarizeOptionsFingerprint(t *testing.T) {
	base := effitest.SummarizeOptions()
	if base.Fingerprint == "" || base.HasPlan || base.PlanCacheDir != "" {
		t.Fatalf("unexpected base summary: %+v", base)
	}
	if again := effitest.SummarizeOptions(); again.Fingerprint != base.Fingerprint {
		t.Fatal("fingerprint is not deterministic")
	}

	differs := map[string]effitest.Option{
		"epsilon":         effitest.WithEpsilon(0.004),
		"seed":            effitest.WithSeed(99),
		"align mode":      effitest.WithAlignMode(effitest.AlignOff),
		"pinned period":   effitest.WithPeriod(1.5),
		"period quantile": effitest.WithPeriodQuantile(0.5, 100),
		"max batch":       effitest.WithMaxBatch(7),
	}
	for name, opt := range differs {
		if got := effitest.SummarizeOptions(opt); got.Fingerprint == base.Fingerprint {
			t.Errorf("%s did not change the fingerprint", name)
		}
	}

	same := map[string]effitest.Option{
		"workers":    effitest.WithWorkers(8),
		"backend":    effitest.WithBackend(effitest.SimBackend{}),
		"observer":   effitest.WithObserver(effitest.NewProgressPrinter(&strings.Builder{})),
		"plan cache": effitest.WithPlanCache("/tmp/x"),
	}
	for name, opt := range same {
		if got := effitest.SummarizeOptions(opt); got.Fingerprint != base.Fingerprint {
			t.Errorf("execution knob %q changed the fingerprint", name)
		}
	}

	if got := effitest.SummarizeOptions(effitest.WithPlanCache("/tmp/x")); got.PlanCacheDir != "/tmp/x" {
		t.Fatalf("PlanCacheDir not surfaced: %+v", got)
	}

	// The inactive period arm is canonicalized away: a stale WithPeriod
	// overridden by WithPeriodQuantile (and vice versa) must not split the
	// fingerprint of equivalent option lists.
	overridden := effitest.SummarizeOptions(effitest.WithPeriod(3), effitest.WithPeriodQuantile(0.8413, 2000))
	if overridden.Fingerprint != base.Fingerprint {
		t.Fatal("stale pinned period leaked into the fingerprint")
	}
	pinned := effitest.SummarizeOptions(effitest.WithPeriod(3))
	repinned := effitest.SummarizeOptions(effitest.WithPeriodQuantile(0.5, 10), effitest.WithPeriod(3))
	if pinned.Fingerprint != repinned.Fingerprint {
		t.Fatal("stale quantile settings leaked into the fingerprint")
	}
	if pinned.Fingerprint == base.Fingerprint {
		t.Fatal("pinned period did not change the fingerprint")
	}
}

func TestSummarizeOptionsHasPlan(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("fpplan", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c, effitest.WithPeriodQuantile(0.8413, 100))
	if err != nil {
		t.Fatal(err)
	}
	if sum := effitest.SummarizeOptions(effitest.WithPlan(eng.Plan())); !sum.HasPlan {
		t.Fatal("WithPlan not reported by the summary")
	}
}

// The engine exposes both halves of its registry/plan-cache identity.
func TestEngineFingerprints(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("fpeng", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c, effitest.WithPeriodQuantile(0.8413, 100), effitest.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	cfp, err := eng.CircuitFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := effitest.CircuitFingerprint(c)
	if err != nil {
		t.Fatal(err)
	}
	if cfp != want {
		t.Fatalf("engine circuit fingerprint %s != facade %s", cfp, want)
	}
	if got := eng.ConfigFingerprint(); got != effitest.ConfigFingerprint(eng.Config()) {
		t.Fatal("engine config fingerprint diverges from ConfigFingerprint")
	}
	// Workers never shapes a plan: it must not move the config fingerprint.
	cfg := eng.Config()
	cfg.Workers = 99
	if effitest.ConfigFingerprint(cfg) != eng.ConfigFingerprint() {
		t.Fatal("worker count changed the config fingerprint")
	}
}

// The -progress observer narrates prepare, batches and chips.
func TestProgressPrinter(t *testing.T) {
	var sb strings.Builder
	c, err := effitest.Generate(effitest.NewProfile("fpprog", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c,
		effitest.WithPeriodQuantile(0.8413, 100),
		effitest.WithObserver(effitest.NewProgressPrinter(&sb)))
	if err != nil {
		t.Fatal(err)
	}
	chips, err := eng.SampleChips(t.Context(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunChipsAll(t.Context(), chips); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"prepared", "batch", "2 chips done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
}
