package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/rng"
	"effitest/internal/skew"
)

// This file keeps the original, non-incremental §3.3 heuristic as a
// test-only oracle: every candidate re-centres, re-sorts and hold-scans the
// whole batch. The production solver (alignHeuristic) must reproduce its
// output bit for bit; TestAlignIncrementalMatchesReference and
// FuzzAlignHeuristic check that.
//
// One input class changed output on purpose and is kept out of the
// differential checks: batches over 32 items with non-integer weights
// (MaxBatch 0 or > 32 with non-integer K0/Kd). There the original sorted
// with sort.Sort, which orders exactly tied values differently from item
// index, and non-integer weight sums round differently in different
// orders, so the median can move at a knife edge. The production solver
// orders ties by item index at every size, as the original's insertion
// sort did up to 32 items; TestAlignHeuristicLargeBatchTiesByIndex pins
// that on one such case.

// refScratch is the oracle's reusable buffers (the original alignScratch).
type refScratch struct {
	x, bestX  []float64
	restart   [3][]float64
	vals, wts []float64
	vw        valsWeights // reused sort adapter; repointed per median call
	bufs      []int
}

// valsWeights sorts two parallel slices by value without allocating.
type valsWeights struct{ v, w []float64 }

func (x valsWeights) Len() int           { return len(x.v) }
func (x valsWeights) Less(a, b int) bool { return x.v[a] < x.v[b] }
func (x valsWeights) Swap(a, b int) {
	x.v[a], x.v[b] = x.v[b], x.v[a]
	x.w[a], x.w[b] = x.w[b], x.w[a]
}

// weightedMedianVW returns the value minimizing Σ w|t - v|, sorting the
// parallel slices in place: insertion sort up to 32 values, sort.Sort
// beyond.
func weightedMedianVW(vw *valsWeights) float64 {
	if len(vw.v) <= 32 {
		insertionSortVW(vw.v, vw.w)
	} else {
		sort.Sort(vw)
	}
	total := 0.0
	for _, w := range vw.w {
		total += w
	}
	acc := 0.0
	for i, w := range vw.w {
		acc += w
		if acc >= total/2 {
			return vw.v[i]
		}
	}
	return vw.v[len(vw.v)-1]
}

// insertionSortVW sorts the parallel (value, weight) slices by value.
func insertionSortVW(v, w []float64) {
	for i := 1; i < len(v); i++ {
		vi, wi := v[i], w[i]
		j := i - 1
		for j >= 0 && v[j] > vi {
			v[j+1], w[j+1] = v[j], w[j]
			j--
		}
		v[j+1], w[j+1] = vi, wi
	}
}

// holdViolated reports whether any item's hold bound is violated by x.
func holdViolated(items []alignItem, x []float64) bool {
	for _, it := range items {
		if !math.IsInf(it.lambda, -1) && x[it.from]-x[it.to] < it.lambda-1e-12 {
			return true
		}
	}
	return false
}

// alignHeuristicRef is weighted-median coordinate descent over the buffer
// lattice: T is re-optimized in closed form; each touched buffer scans its
// lattice, skipping values that violate any hold bound of the batch.
func alignHeuristicRef(c *circuit.Circuit, items []alignItem, prev []float64, scr *refScratch) alignResult {
	scr.x = resizeF(scr.x, c.NumFF)
	x := scr.x
	if prev != nil {
		copy(x, prev) // a warm re-solve may hand back x itself; copy is a no-op then
	} else {
		clear(x)
	}
	// Collect touched buffered FFs (a batch touches at most 2×len(items),
	// so a linear membership scan beats a map).
	bufs := scr.bufs[:0]
	for _, it := range items {
		for _, f := range [2]int{it.from, it.to} {
			if c.Buf.Buffered[f] && !slices.Contains(bufs, f) {
				bufs = append(bufs, f)
			}
		}
	}
	scr.bufs = bufs
	sort.Ints(bufs)
	// Quantize any inherited values and repair hold feasibility.
	for _, f := range bufs {
		x[f] = c.Buf.Quantize(f, x[f])
	}
	repairHolds(c, items, bufs, x)

	scr.vals = resizeF(scr.vals, len(items))
	scr.wts = resizeF(scr.wts, len(items))
	vals, ws := scr.vals, scr.wts
	// evalBestT returns the objective with T re-optimized in closed form
	// (the weighted median of the shifted centers) for the current x.
	evalBestT := func() (float64, float64) {
		for i, it := range items {
			vals[i] = it.center() + x[it.from] - x[it.to]
			ws[i] = it.weight
		}
		scr.vw.v, scr.vw.w = vals, ws
		t := weightedMedianVW(&scr.vw)
		if t < 0 {
			t = 0
		}
		return t, alignObjective(items, t, x)
	}

	latticeValue := func(f, k int) float64 { return c.Buf.Lo[f] + float64(k)*c.Buf.StepSize(f) }
	steps := c.Buf.Steps
	if steps < 0 {
		steps = 0
	}

	if len(bufs) <= 2 && steps > 0 && steps <= 64 {
		// Exhaustive lattice search: exact for one- and two-buffer batches
		// (common on circuits with few buffers).
		scr.bestX = resizeF(scr.bestX, c.NumFF)
		bestX := scr.bestX
		copy(bestX, x)
		_, best := evalBestT()
		if holdViolated(items, x) {
			best = math.Inf(1)
		}
		scan := func() {
			if _, obj := evalBestT(); obj < best-1e-12 && !holdViolated(items, x) {
				best = obj
				copy(bestX, x)
			}
		}
		switch len(bufs) {
		case 1:
			for k := 0; k <= steps; k++ {
				x[bufs[0]] = latticeValue(bufs[0], k)
				scan()
			}
		case 2:
			for k0 := 0; k0 <= steps; k0++ {
				x[bufs[0]] = latticeValue(bufs[0], k0)
				for k1 := 0; k1 <= steps; k1++ {
					x[bufs[1]] = latticeValue(bufs[1], k1)
					scan()
				}
			}
		}
		copy(x, bestX)
		t, obj := evalBestT()
		return alignResult{T: t, X: x, Obj: obj}
	}

	// Multi-start coordinate descent for batches touching many buffers.
	descend := func() float64 {
		repairHolds(c, items, bufs, x)
		_, best := evalBestT()
		const maxPasses = 25
		for pass := 0; pass < maxPasses; pass++ {
			improved := false
			for _, f := range bufs {
				cur := x[f]
				bestV, bestObj := cur, best
				for k := 0; k <= steps; k++ {
					v := latticeValue(f, k)
					if v == cur {
						continue
					}
					x[f] = v
					if holdViolated(items, x) {
						continue
					}
					if _, obj := evalBestT(); obj < bestObj-1e-12 {
						bestObj, bestV = obj, v
					}
				}
				x[f] = bestV
				if bestObj < best-1e-12 {
					best = bestObj
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		return best
	}

	scr.bestX = resizeF(scr.bestX, c.NumFF)
	bestX := scr.bestX
	bestObj := descend()
	copy(bestX, x)
	if prev != nil {
		// Warm-started re-solve within a batch: bounds moved only a little,
		// so a single descent from the previous optimum suffices.
		copy(x, bestX)
		t, obj := evalBestT()
		return alignResult{T: t, X: x, Obj: obj}
	}
	// Cold start: restart from all-zero (quantized) and two deterministic
	// spreads derived from the batch contents.
	restarts := scr.restart[:] // aliases scr.restart, so grown buffers persist
	for ri := range restarts {
		restarts[ri] = resizeF(restarts[ri], c.NumFF)
		rx := restarts[ri]
		clear(rx)
		for bi, f := range bufs {
			switch ri {
			case 0:
				rx[f] = c.Buf.Quantize(f, 0)
			case 1:
				// Alternate extremes by position.
				if bi%2 == 0 {
					rx[f] = c.Buf.Lo[f]
				} else {
					rx[f] = c.Buf.Hi[f]
				}
			default:
				if bi%2 == 1 {
					rx[f] = c.Buf.Lo[f]
				} else {
					rx[f] = c.Buf.Hi[f]
				}
			}
		}
	}
	for _, rx := range restarts {
		copy(x, rx)
		if obj := descend(); obj < bestObj-1e-12 {
			bestObj = obj
			copy(bestX, x)
		}
	}
	copy(x, bestX)
	t, obj := evalBestT()
	return alignResult{T: t, X: x, Obj: obj}
}

// caseSource is the randomness a differential case draws on: *rand.Rand in
// the seeded test, the fuzzer's bytes in FuzzAlignHeuristic.
type caseSource interface {
	Intn(n int) int
	Float64() float64
}

// byteSource reads a caseSource from fuzz input; an exhausted input reads
// as zeros.
type byteSource struct{ data []byte }

func (s *byteSource) next() uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		v <<= 8
		if len(s.data) > 0 {
			v |= uint32(s.data[0])
			s.data = s.data[1:]
		}
	}
	return v
}

func (s *byteSource) Intn(n int) int   { return int(s.next() % uint32(n)) }
func (s *byteSource) Float64() float64 { return float64(s.next()) / (1 << 32) }

var (
	diffCircuitsOnce sync.Once
	diffCircuitsSet  []*circuit.Circuit
	diffCircuitsErr  error
)

// diffCircuits returns the differential suite's circuits: tiny circuits
// with 3, 8 and 20 buffers (so the one-buffer, two-buffer exhaustive and
// descent paths all run), each also in a "grid" copy whose buffer lattice
// is dyadic (range ±1/4 in 16 steps of 1/32), so that dyadic windows give
// exactly tied shifted centres across moved and unmoved items.
func diffCircuits(tb testing.TB) []*circuit.Circuit {
	tb.Helper()
	diffCircuitsOnce.Do(func() {
		for i, nb := range []int{3, 8, 20} {
			c, err := tinyCircuitErr(24, 200, nb, 40, int64(11+i))
			if err != nil {
				diffCircuitsErr = err
				return
			}
			// c is fresh from Generate, so the copy inherits no stored
			// derived data (covariance, fingerprint). Only Buf changes,
			// which the netlist does not carry: the grid copy must never
			// key a plan cache.
			grid := *c
			grid.Buf = skew.Uniform(c.NumFF, c.Buffered, -0.25, 0.25, 16)
			diffCircuitsSet = append(diffCircuitsSet, c, &grid)
		}
	})
	if diffCircuitsErr != nil {
		tb.Fatal(diffCircuitsErr)
	}
	return diffCircuitsSet
}

// alignCase is one solver input of the differential checks.
type alignCase struct {
	c     *circuit.Circuit
	items []alignItem
	prev  []float64
}

// genAlignCase draws a batch on one of cs: 1–16 items, or 33–52 (the
// oracle's sort.Sort branch); random windows, dyadic on grid circuits;
// forced exact ties (an item repeating an earlier one's endpoints and
// window); random hold bounds; default, non-integer or random K0/Kd, or
// decimal weights (integer K0/Kd only past 32 items); and a cold start or
// a random warm start.
func genAlignCase(src caseSource, cs []*circuit.Circuit) alignCase {
	ci := src.Intn(len(cs))
	c := cs[ci]
	grid := ci%2 == 1
	n := 1 + src.Intn(16)
	if src.Intn(4) == 0 {
		n = 33 + src.Intn(20)
	}
	items := make([]alignItem, n)
	for i := range items {
		p := src.Intn(c.NumPaths())
		pt := &c.Paths[p]
		mu, sd := pt.Max.Mean, pt.Max.Sigma()
		lo := mu - 3*sd*src.Float64()
		hi := lo + 6*sd*src.Float64()
		if grid {
			lo, hi = math.Round(lo*64)/64, math.Round(hi*64)/64
		}
		items[i] = alignItem{path: p, from: pt.From, to: pt.To, lo: lo, hi: hi, lambda: math.Inf(-1)}
		if src.Intn(3) == 0 {
			// From comfortably loose to unsatisfiable within buffer reach.
			items[i].lambda = (2*src.Float64() - 1.5) * (c.Buf.Hi[c.Buffered[0]] - c.Buf.Lo[c.Buffered[0]])
		}
		if i > 0 && src.Intn(4) == 0 {
			j := src.Intn(i)
			items[i].from, items[i].to = items[j].from, items[j].to
			items[i].lo, items[i].hi = items[j].lo, items[j].hi
		}
	}
	k0, kd := 1000.0, 1.0
	switch src.Intn(3) {
	case 1:
		k0, kd = 1000.37, 0.913
	case 2:
		k0, kd = 1+50*src.Float64(), 0.01+src.Float64()
	}
	if n > 32 {
		// Integer weights only past 32 items: see the file comment.
		k0, kd = math.Round(k0), math.Round(kd)
	}
	assignWeights(items, k0, kd)
	if src.Intn(4) == 0 && n <= 32 {
		// Decimal weights: sums round differently in different orders, so
		// the order of tied values decides the median at a knife edge.
		for i := range items {
			items[i].weight = 0.1 * float64(1+src.Intn(7))
		}
	}
	var prev []float64
	if src.Intn(2) == 0 {
		prev = make([]float64, c.NumFF)
		for _, f := range c.Buffered {
			prev[f] = c.Buf.Lo[f] + src.Float64()*(c.Buf.Hi[f]-c.Buf.Lo[f])
		}
	}
	return alignCase{c: c, items: items, prev: prev}
}

// sameBits reports the first bitwise difference between two results.
func sameBits(got, want alignResult) error {
	if math.Float64bits(got.T) != math.Float64bits(want.T) {
		return fmt.Errorf("T = %v, reference %v", got.T, want.T)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		return fmt.Errorf("Obj = %v, reference %v", got.Obj, want.Obj)
	}
	if len(got.X) != len(want.X) {
		return fmt.Errorf("len(X) = %d, reference %d", len(got.X), len(want.X))
	}
	for f := range got.X {
		if math.Float64bits(got.X[f]) != math.Float64bits(want.X[f]) {
			return fmt.Errorf("X[%d] = %v, reference %v", f, got.X[f], want.X[f])
		}
	}
	return nil
}

// checkAlignCase solves tc with both solvers, then re-solves a shrunken
// batch warm-started from each solver's own result (aliasing its scratch,
// as runBatchTest does); every result must be bit-identical. It also checks
// alignOff's median against the oracle's.
func checkAlignCase(tc alignCase, scr *alignScratch, ref *refScratch) error {
	got := alignHeuristic(tc.c, tc.items, tc.prev, scr)
	want := alignHeuristicRef(tc.c, tc.items, tc.prev, ref)
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("%d items, first solve: %v", len(tc.items), err)
	}
	for i := range tc.items {
		tc.items[i].lo += (tc.items[i].hi - tc.items[i].lo) / 4
	}
	got = alignHeuristic(tc.c, tc.items, got.X, scr)
	want = alignHeuristicRef(tc.c, tc.items, want.X, ref)
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("%d items, warm re-solve: %v", len(tc.items), err)
	}
	vals := make([]float64, len(tc.items))
	wts := make([]float64, len(tc.items))
	for i, it := range tc.items {
		vals[i], wts[i] = it.center(), it.weight
	}
	off := alignOff(tc.c, tc.items, scr)
	if m := weightedMedianVW(&valsWeights{vals, wts}); math.Float64bits(off.T) != math.Float64bits(m) {
		return fmt.Errorf("%d items, alignOff T = %v, reference median %v", len(tc.items), off.T, m)
	}
	return nil
}

// TestAlignIncrementalMatchesReference pins the incremental scoring of
// alignHeuristic to the original whole-batch solver, bit for bit, over
// random batches covering every solver path, both sort branches of the
// oracle, integer and non-integer weights, exact ties, hold bounds, and
// cold and warm starts. The scratches persist across cases, so reuse over
// changing batch sizes and circuits is covered too.
func TestAlignIncrementalMatchesReference(t *testing.T) {
	cs := diffCircuits(t)
	cases := 3000
	if testing.Short() {
		cases = 600
	}
	r := rng.New(12, "align-incremental")
	scr, ref := &alignScratch{}, &refScratch{}
	for i := 0; i < cases; i++ {
		if err := checkAlignCase(genAlignCase(r, cs), scr, ref); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

// FuzzAlignHeuristic is the differential check over fuzzer-chosen inputs:
// the bytes pick the circuit, batch, windows, weights, warm start and hold
// bounds (genAlignCase), and the incremental solver must match the oracle
// bit for bit.
func FuzzAlignHeuristic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x01\x00\x00\x00\x05"))
	cs := diffCircuits(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkAlignCase(genAlignCase(&byteSource{data}, cs), &alignScratch{}, &refScratch{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAlignHeuristicLargeBatchTiesByIndex pins the output change for
// batches over 32 items with non-integer weights (MaxBatch 0 or > 32 with
// non-integer K0/Kd): the weighted median walks exact ties in item-index
// order at every batch size. On this 33-item batch of weights in tenths
// that order gives T = 3; the original solver's sort.Sort order, and
// reverse index order, give 2. alignOff and alignHeuristic share the
// median, so both are pinned.
func TestAlignHeuristicLargeBatchTiesByIndex(t *testing.T) {
	vals := []float64{3, 1, 1, 3, 1, 2, 3, 2, 2, 1, 2, 3, 1, 3, 1, 2, 1, 2, 3, 2, 3, 1, 3, 3, 3, 1, 3, 3, 3, 1, 3, 3, 3}
	tenths := []int{2, 1, 1, 1, 2, 2, 2, 3, 2, 1, 1, 1, 2, 3, 3, 2, 1, 3, 2, 3, 2, 2, 1, 2, 3, 1, 2, 2, 3, 2, 2, 2, 2}
	c := diffCircuits(t)[0]
	f := slices.Index(c.Buf.Buffered, false) // items on an unbuffered FF: x leaves the centres alone
	if f < 0 {
		t.Fatal("no unbuffered FF")
	}
	items := make([]alignItem, len(vals))
	wts := make([]float64, len(vals))
	for i, v := range vals {
		wts[i] = 0.1 * float64(tenths[i])
		items[i] = alignItem{from: f, to: f, lo: v, hi: v, lambda: math.Inf(-1), weight: wts[i]}
	}
	const want = 3.0
	if got := alignOff(c, items, &alignScratch{}).T; got != want {
		t.Fatalf("alignOff T = %v, want %v", got, want)
	}
	if got := alignHeuristic(c, items, nil, &alignScratch{}).T; got != want {
		t.Fatalf("alignHeuristic T = %v, want %v", got, want)
	}
	t.Logf("original solver (sort.Sort) median: %v", weightedMedianVW(&valsWeights{vals, wts}))
}
