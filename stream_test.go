// Streaming-API coverage: Engine.Stream must process unbounded chip
// sources without materializing the population, keep results in input
// order and bit-identical to RunChips, bound its in-flight window, and
// stop cleanly on consumer break and on context cancellation.
package effitest_test

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"effitest"
)

func streamEngine(t *testing.T, workers int) *effitest.Engine {
	t.Helper()
	c, err := effitest.Generate(effitest.NewProfile("streamed", 16, 120, 2, 14), 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := effitest.New(c,
		effitest.WithWorkers(workers),
		effitest.WithPeriodQuantile(0.8413, 200),
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// chipGenerator lazily manufactures chips on demand, counting how many
// were ever pulled.
func chipGenerator(eng *effitest.Engine, seed int64, n int, pulled *atomic.Int64) iter.Seq[*effitest.Chip] {
	return func(yield func(*effitest.Chip) bool) {
		for i := 0; i < n; i++ {
			pulled.Add(1)
			if !yield(effitest.SampleChip(eng.Circuit(), seed, i)) {
				return
			}
		}
	}
}

// TestStreamTenThousandChips pushes a 10k-chip generator through Stream
// and checks ordering, completeness, and that the generator was consumed
// incrementally rather than drained up front.
func TestStreamTenThousandChips(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-chip stream skipped in -short mode")
	}
	const n = 10_000
	eng := streamEngine(t, 0)
	var pulled atomic.Int64

	next := 0
	passed := 0
	for r := range eng.Stream(context.Background(), chipGenerator(eng, 5, n, &pulled)) {
		if r.Index != next {
			t.Fatalf("result %d arrived out of order (want %d)", r.Index, next)
		}
		next++
		if r.Err != nil {
			t.Fatalf("chip %d: %v", r.Index, r.Err)
		}
		if r.Outcome.Passed {
			passed++
		}
		// The source must stay only a bounded window ahead of the consumer:
		// that bound is what "never materializes the population" means.
		if ahead := pulled.Load() - int64(next); ahead > int64(4*runtime.NumCPU()+8) {
			t.Fatalf("generator ran %d chips ahead of the consumer", ahead)
		}
	}
	if next != n {
		t.Fatalf("stream yielded %d results, want %d", next, n)
	}
	if passed == 0 {
		t.Fatal("no chip passed — suspicious fixture")
	}
}

// TestStreamMatchesRunChips requires the streaming path to produce
// outcomes bit-identical to the slice path.
func TestStreamMatchesRunChips(t *testing.T) {
	eng := streamEngine(t, 3)
	ctx := context.Background()
	chips, err := eng.SampleChips(ctx, 11, 40)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RunChipsAll(ctx, chips)
	if err != nil {
		t.Fatal(err)
	}
	var pulled atomic.Int64
	i := 0
	for r := range eng.Stream(ctx, chipGenerator(eng, 11, 40, &pulled)) {
		if r.Err != nil {
			t.Fatalf("chip %d: %v", r.Index, r.Err)
		}
		if !engineOutcomesEqual(r.Outcome, want[r.Index]) {
			t.Fatalf("chip %d: streamed outcome differs from RunChips", r.Index)
		}
		i++
	}
	if i != 40 {
		t.Fatalf("stream yielded %d results, want 40", i)
	}
}

// TestRunChipsInFlightWindow pins the slice path's in-flight window: with
// one worker, at most 3 chips may have started (their first batch begun)
// but not yet been yielded, however many chips the slice holds.
func TestRunChipsInFlightWindow(t *testing.T) {
	c, err := effitest.Generate(effitest.NewProfile("streamed", 16, 120, 2, 14), 8)
	if err != nil {
		t.Fatal(err)
	}
	var started, yielded, worst atomic.Int64
	eng, err := effitest.New(c,
		effitest.WithWorkers(1),
		effitest.WithPeriodQuantile(0.8413, 200),
		effitest.WithObserver(effitest.ObserverFunc(func(e effitest.Event) {
			if b, ok := e.(effitest.BatchStartEvent); ok && b.Batch == 0 {
				// yielded counts from the start of the consumer's loop body,
				// before the stream frees the chip's window slot, so this
				// difference can only overstate what is in flight.
				if d := started.Add(1) - yielded.Load(); d > worst.Load() {
					worst.Store(d)
				}
			}
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chips, err := eng.SampleChips(ctx, 11, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for r := range eng.RunChips(ctx, chips) {
		yielded.Add(1)
		if r.Err != nil {
			t.Fatalf("chip %d: %v", r.Index, r.Err)
		}
		n++
	}
	if n != len(chips) || started.Load() != int64(len(chips)) {
		t.Fatalf("yielded %d, started %d, want %d of each", n, started.Load(), len(chips))
	}
	if w := worst.Load(); w > 3 {
		t.Fatalf("%d chips in flight on one worker, want at most 3", w)
	}
}

// TestStreamBreakStopsSource breaks out of the stream early and checks
// the source stops being pulled and no goroutines are leaked.
func TestStreamBreakStopsSource(t *testing.T) {
	eng := streamEngine(t, 4)
	before := runtime.NumGoroutine()
	var pulled atomic.Int64

	got := 0
	for r := range eng.Stream(context.Background(), chipGenerator(eng, 3, 1_000_000, &pulled)) {
		if r.Err != nil {
			t.Fatalf("chip %d: %v", r.Index, r.Err)
		}
		if got++; got == 25 {
			break
		}
	}
	if got != 25 {
		t.Fatalf("consumed %d, want 25", got)
	}
	// The stream's in-flight window is a hard bound: at most 3×workers
	// chips are pulled but not yet yielded, plus the one the producer may
	// hold while waiting for a slot.
	if p := pulled.Load(); p > 25+3*4+1 {
		t.Fatalf("source pulled %d chips for 25 consumed (window is 3×workers)", p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked after break: %d -> %d", before, now)
	}
}

// TestStreamCancellationStopsCleanly cancels mid-stream: the stream must
// end (possibly short) instead of blocking, and the source must stop.
func TestStreamCancellationStopsCleanly(t *testing.T) {
	eng := streamEngine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pulled atomic.Int64

	done := make(chan struct{})
	var clean, errored int
	go func() {
		defer close(done)
		for r := range eng.Stream(ctx, chipGenerator(eng, 7, 1_000_000, &pulled)) {
			if r.Err != nil {
				if !errors.Is(r.Err, context.Canceled) {
					panic(r.Err)
				}
				errored++
				continue
			}
			clean++
			if clean == 10 {
				cancel()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after cancellation")
	}
	if clean < 10 {
		t.Fatalf("consumed %d clean results before cancel, want ≥ 10", clean)
	}
	// Chips pulled but dropped on cancellation are bounded by the hard
	// in-flight window (3×workers, plus the producer's in-hand chip).
	if p := pulled.Load(); p > int64(clean+errored)+3*4+1 {
		t.Fatalf("source pulled %d chips after cancellation", p)
	}
}

// TestStreamCancelWithBlockedSource cancels a stream whose source is
// parked forever mid-pull: the stream must still terminate after the
// in-flight chips finish, because the producer cannot be interrupted
// inside user code.
func TestStreamCancelWithBlockedSource(t *testing.T) {
	eng := streamEngine(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	release := make(chan struct{})
	defer close(release)
	blocked := func(yield func(*effitest.Chip) bool) {
		for i := 0; i < 4; i++ {
			if !yield(effitest.SampleChip(eng.Circuit(), 5, i)) {
				return
			}
		}
		<-release // source stalls: no further chips, no return
		// Unreachable until teardown.
	}

	done := make(chan int)
	go func() {
		n := 0
		for r := range eng.Stream(ctx, blocked) {
			if r.Err == nil {
				n++
			}
			if n == 2 {
				cancel()
			}
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n < 2 {
			t.Fatalf("consumed %d clean results, want ≥ 2", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream hung on cancellation with a blocked source")
	}
}
