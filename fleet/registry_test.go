package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"effitest"
)

func tinyCircuit(t *testing.T, name string, seed int64) *effitest.Circuit {
	t.Helper()
	c, err := effitest.Generate(effitest.NewProfile(name, 24, 200, 3, 24), seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fastOpts keeps period calibration cheap in tests.
func fastOpts(extra ...effitest.Option) []effitest.Option {
	return append([]effitest.Option{effitest.WithPeriodQuantile(0.8413, 100)}, extra...)
}

// N concurrent requests for the same (circuit, configuration) must run the
// expensive offline Prepare exactly once and share one engine — the
// single-flight contract the fleet service is built on.
func TestRegistrySingleFlight(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	c := tinyCircuit(t, "sflight", 3)

	const n = 16
	engines := make([]*effitest.Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			engines[i], errs[i] = r.Engine(context.Background(), c, fastOpts()...)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if engines[i] != engines[0] {
			t.Fatalf("request %d got a different engine instance", i)
		}
	}
	st := r.Stats()
	if st.Prepares != 1 {
		t.Fatalf("expected exactly 1 Prepare for %d concurrent requests, got %d", n, st.Prepares)
	}
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("expected 1 miss + %d hits, got %d misses %d hits", n-1, st.Misses, st.Hits)
	}
	if st.Live != 1 {
		t.Fatalf("expected 1 live engine, got %d", st.Live)
	}
}

// Distinct configurations (and distinct circuits) must not share engines.
func TestRegistryKeysSeparateConfigs(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := tinyCircuit(t, "keyed", 3)

	a, err := r.Engine(ctx, c, fastOpts(effitest.WithEpsilon(0.002))...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Engine(ctx, c, fastOpts(effitest.WithEpsilon(0.008))...)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different epsilons were served the same engine")
	}
	// Worker count and backend are execution knobs: same engine.
	a2, err := r.Engine(ctx, c, fastOpts(effitest.WithEpsilon(0.002), effitest.WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Fatal("worker count changed the registry key")
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("expected 2 live engines, got %d", got)
	}
}

// The LRU bound evicts the least-recently-used engine; with a plan-cache
// directory underneath, re-requesting the evicted key reloads the artifact
// instead of re-running Prepare.
func TestRegistryLRUEvictionWithPlanCache(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(WithCapacity(2), WithPlanCacheDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := tinyCircuit(t, "evict", 3)

	epses := []float64{0.002, 0.004, 0.008}
	for _, e := range epses {
		if _, err := r.Engine(ctx, c, fastOpts(effitest.WithEpsilon(e))...); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Evictions != 1 {
		t.Fatalf("expected 1 eviction at capacity 2, got %d", st.Evictions)
	}
	if st.Live != 2 {
		t.Fatalf("expected 2 live engines, got %d", st.Live)
	}
	if st.Prepares != 3 {
		t.Fatalf("expected 3 cold Prepares, got %d", st.Prepares)
	}

	// The evicted (eps=0.002) key comes back via the on-disk plan cache:
	// a miss, but not a Prepare.
	eng, err := r.Engine(ctx, c, fastOpts(effitest.WithEpsilon(0.002))...)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.PlanCacheHit() {
		t.Fatal("re-request after eviction should have hit the plan cache")
	}
	st = r.Stats()
	if st.Prepares != 3 {
		t.Fatalf("plan-cache reload must not re-run Prepare: %d", st.Prepares)
	}
	if st.Misses != 4 {
		t.Fatalf("expected 4 misses, got %d", st.Misses)
	}
}

// A constructor abandoned by its own caller's cancellation must not poison
// concurrent waiters on the same key: they retry under their own context.
func TestRegistryWaiterSurvivesConstructorCancellation(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	c := tinyCircuit(t, "poison", 3)

	ctxA, cancelA := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() {
		_, err := r.Engine(ctxA, c, fastOpts()...)
		aErr <- err
	}()
	// Wait for A's in-flight entry, attach B as a waiter, then cancel A.
	for r.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	bErr := make(chan error, 1)
	go func() {
		_, err := r.Engine(context.Background(), c, fastOpts()...)
		bErr <- err
	}()
	cancelA()

	if err := <-bErr; err != nil {
		t.Fatalf("waiter inherited the constructor's cancellation: %v", err)
	}
	if err := <-aErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("constructor: unexpected error %v", err)
	}
}

// A failed construction must not be cached: the error reaches the caller
// and the key is forgotten so the next request retries.
func TestRegistryConstructionErrorForgotten(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := tinyCircuit(t, "badopt", 3)

	if _, err := r.Engine(ctx, c, effitest.WithEpsilon(-1)); err == nil {
		t.Fatal("expected an option validation error")
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("failed construction left %d registry entries", got)
	}
	// Same circuit, valid options: works.
	if _, err := r.Engine(ctx, c, fastOpts()...); err != nil {
		t.Fatal(err)
	}
}

// countingBackend counts session opens (and otherwise simulates). Workers
// open sessions concurrently, so the count is atomic.
type countingBackend struct {
	opens atomic.Int32
	inner effitest.SimBackend
}

func (cb *countingBackend) Open(ch *effitest.Chip, resolution float64) (effitest.Session, error) {
	cb.opens.Add(1)
	return cb.inner.Open(ch, resolution)
}

// Engines with a custom backend or observer are caller-private: they must
// never be cached (a later caller without the option would inherit the
// transport), and a cached transport-neutral engine must never be served
// to a caller that asked for one.
func TestRegistryBackendAndObserverBypass(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := tinyCircuit(t, "trans", 3)

	shared, err := r.Engine(ctx, c, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{}
	private, err := r.Engine(ctx, c, fastOpts(effitest.WithBackend(cb))...)
	if err != nil {
		t.Fatal(err)
	}
	if private == shared {
		t.Fatal("a WithBackend request was served the shared transport-neutral engine")
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("backend engine was cached: %d entries", got)
	}
	chips, err := private.SampleChips(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := private.RunChipsAll(ctx, chips); err != nil {
		t.Fatal(err)
	}
	if cb.opens.Load() == 0 {
		t.Fatal("custom backend never used by the private engine")
	}
	obs, err := r.Engine(ctx, c, fastOpts(effitest.WithObserver(effitest.NewProgressPrinter(nopWriter{})))...)
	if err != nil {
		t.Fatal(err)
	}
	if obs == shared || r.Len() != 1 {
		t.Fatal("a WithObserver engine was shared or cached")
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// WithPlan engines bypass the registry: the artifact governs the flow, so
// they are constructed directly and never cached.
func TestRegistryWithPlanBypasses(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := tinyCircuit(t, "bypass", 3)

	base, err := effitest.NewCtx(ctx, c, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := r.Engine(ctx, c, fastOpts(effitest.WithPlan(base.Plan()))...)
	if err != nil {
		t.Fatal(err)
	}
	if eng == base {
		t.Fatal("expected a fresh engine around the supplied plan")
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("WithPlan engine was cached: %d entries", got)
	}
}
