package core

import (
	"math"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/tester"
)

func kernelTestPlan(t *testing.T) (*circuit.Circuit, *Plan) {
	t.Helper()
	c, err := circuit.Generate(circuit.TinyProfile("kerneltest", 48, 480, 4, 56), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HoldSamples = 60
	pl, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, pl
}

// TestBakedKernelsMatchNaivePredict pins the baked fast path bitwise
// against PredictBounds/PredictSigmas on measured bounds from a real chip
// run (the root-level differential suite covers the full conformance
// matrix; this is the white-box core variant).
func TestBakedKernelsMatchNaivePredict(t *testing.T) {
	c, pl := kernelTestPlan(t)
	if pl.kernels == nil {
		t.Fatal("Prepare left no baked kernels")
	}

	ch := tester.SampleChip(c, 9, 0)
	out, err := pl.RunChip(ch, c.TNominal)
	if err != nil {
		t.Fatal(err)
	}

	// Replay prediction on copies of the measured bounds through both paths.
	mk := func() *Bounds {
		b := InitBounds(c)
		copy(b.Lo, out.Bounds.Lo)
		copy(b.Hi, out.Bounds.Hi)
		return b
	}
	naive := mk()
	if err := PredictBounds(c, pl.Groups, pl.Tested, naive); err != nil {
		t.Fatal(err)
	}
	fast := mk()
	scr := pl.getScratch()
	defer pl.putScratch(scr)
	pl.kernels.predictBounds(fast, &scr.ws)
	for p := range naive.Lo {
		if naive.Lo[p] != fast.Lo[p] || naive.Hi[p] != fast.Hi[p] {
			t.Fatalf("path %d: naive [%v, %v] != kernel [%v, %v]",
				p, naive.Lo[p], naive.Hi[p], fast.Lo[p], fast.Hi[p])
		}
	}

	sigNaive, err := PredictSigmas(c, pl.Groups, pl.Tested)
	if err != nil {
		t.Fatal(err)
	}
	sigFast := pl.PredictorSigmas()
	for p := range sigNaive {
		if math.IsNaN(sigNaive[p]) != math.IsNaN(sigFast[p]) {
			t.Fatalf("path %d: NaN disagreement: %v vs %v", p, sigNaive[p], sigFast[p])
		}
		if !math.IsNaN(sigNaive[p]) && sigNaive[p] != sigFast[p] {
			t.Fatalf("path %d: σ′ %v (naive) != %v (kernel)", p, sigNaive[p], sigFast[p])
		}
	}
}

// TestPredictBoundsKernelZeroAlloc asserts the per-chip prediction fast
// path performs zero heap allocations once the worker scratch is warm —
// the contract that keeps fleet throughput off the garbage collector.
func TestPredictBoundsKernelZeroAlloc(t *testing.T) {
	c, pl := kernelTestPlan(t)
	ch := tester.SampleChip(c, 9, 1)
	out, err := pl.RunChip(ch, c.TNominal)
	if err != nil {
		t.Fatal(err)
	}
	b := InitBounds(c)
	copy(b.Lo, out.Bounds.Lo)
	copy(b.Hi, out.Bounds.Hi)

	scr := pl.getScratch()
	defer pl.putScratch(scr)
	pl.kernels.predictBounds(b, &scr.ws) // warm-up
	allocs := testing.AllocsPerRun(100, func() {
		pl.kernels.predictBounds(b, &scr.ws)
	})
	if allocs != 0 {
		t.Fatalf("per-chip prediction allocated %.1f times per run after warm-up", allocs)
	}
}

// TestWithoutPredictorKernelsFallsBack covers the naive fallback used by
// the differential suite: a plan stripped of its kernels must still run
// chips (through PredictBounds) and produce an outcome.
func TestWithoutPredictorKernelsFallsBack(t *testing.T) {
	c, pl := kernelTestPlan(t)
	naive := pl.WithoutPredictorKernels()
	if naive.kernels != nil {
		t.Fatal("WithoutPredictorKernels kept the kernels")
	}
	if pl.kernels == nil {
		t.Fatal("WithoutPredictorKernels mutated the original plan")
	}
	ch := tester.SampleChip(c, 9, 2)
	want, err := pl.RunChip(ch, c.TNominal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := naive.RunChip(ch, c.TNominal)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.Passed != want.Passed || got.Xi != want.Xi {
		t.Fatalf("naive fallback diverges: (%d, %v, %v) vs (%d, %v, %v)",
			got.Iterations, got.Passed, got.Xi, want.Iterations, want.Passed, want.Xi)
	}
}

// TestBindLazyKernelBake asserts Bind defers the per-group Cholesky bake:
// a warm plan load must do no eager kernel work, the first chip run must
// bake exactly once, and the lazily baked plan must match the eagerly
// prepared one bitwise.
func TestBindLazyKernelBake(t *testing.T) {
	c, eager := kernelTestPlan(t)
	data, err := eager.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Bind(c); err != nil {
		t.Fatal(err)
	}
	if pl.kernels != nil || pl.bakedKernels() != nil {
		t.Fatal("Bind baked prediction kernels eagerly; the bake must defer to first use")
	}
	if pl.lazy == nil {
		t.Fatal("Bind installed no lazy kernel state")
	}

	ch := tester.SampleChip(c, 9, 4)
	want, err := eager.RunChip(ch, c.TNominal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.RunChip(ch, c.TNominal)
	if err != nil {
		t.Fatal(err)
	}
	if pl.bakedKernels() == nil {
		t.Fatal("first chip run did not bake the kernels")
	}
	if got.Iterations != want.Iterations || got.Passed != want.Passed || got.Xi != want.Xi {
		t.Fatalf("lazily bound plan diverges: (%d, %v, %v) vs (%d, %v, %v)",
			got.Iterations, got.Passed, got.Xi, want.Iterations, want.Passed, want.Xi)
	}
	for p := range want.Bounds.Lo {
		if got.Bounds.Lo[p] != want.Bounds.Lo[p] || got.Bounds.Hi[p] != want.Bounds.Hi[p] {
			t.Fatalf("path %d: lazily bound bounds diverge", p)
		}
	}
}
