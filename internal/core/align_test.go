package core

import (
	"math"
	"slices"
	"testing"

	"effitest/internal/circuit"
	"effitest/internal/rng"
)

func TestAssignWeightsMiddleHighest(t *testing.T) {
	items := []alignItem{
		{lo: 0, hi: 2},  // center 1
		{lo: 4, hi: 6},  // center 5
		{lo: 8, hi: 10}, // center 9
	}
	assignWeights(items, 1000, 1)
	if items[1].weight != 1000 {
		t.Fatalf("middle weight %v, want 1000", items[1].weight)
	}
	if items[0].weight != 999 || items[2].weight != 999 {
		t.Fatalf("outer weights %v %v, want 999", items[0].weight, items[2].weight)
	}
}

// weightedMedian runs the solver's weighted median (alignEval.median) over
// unshifted values: one item per value, with a zero-width window there.
func weightedMedian(vals, weights []float64) float64 {
	items := make([]alignItem, len(vals))
	for i, v := range vals {
		items[i] = alignItem{lo: v, hi: v, weight: weights[i]}
	}
	var e alignEval
	e.begin(items)
	e.sweep(items, nil, -1)
	return e.median()
}

func TestWeightedMedian(t *testing.T) {
	if v := weightedMedian([]float64{1, 5, 9}, []float64{1, 1, 1}); v != 5 {
		t.Fatalf("median = %v", v)
	}
	// Heavy weight pulls the median.
	if v := weightedMedian([]float64{1, 5, 9}, []float64{10, 1, 1}); v != 1 {
		t.Fatalf("weighted median = %v", v)
	}
	// Unsorted input, and non-integer weights (total summed in value order).
	if v := weightedMedian([]float64{9, 1, 5}, []float64{0.5, 0.25, 0.3}); v != 5 {
		t.Fatalf("non-integer weighted median = %v", v)
	}
	// The running weight reaching exactly half the total stops the walk.
	if v := weightedMedian([]float64{2, 1}, []float64{1, 1}); v != 1 {
		t.Fatalf("half-weight median = %v", v)
	}
}

// TestAlignEvalMergeOrdersTiesByIndex pins the tie rule of the incremental
// median: a moved item tied with an unmoved one is walked in item-index
// order, as a stable sort of the whole batch would place it. The weights
// make the order visible: (0.1+0.1)+0.4 and (0.1+0.4)+0.1 round apart, and
// the last weight puts half the total between the two sums.
func TestAlignEvalMergeOrdersTiesByIndex(t *testing.T) {
	vals := []float64{0.5, 1, 1, 2}
	wts := []float64{0.1, 0.1, 0.4, math.Nextafter(0.6, 1)}
	items := make([]alignItem, len(vals))
	for i, v := range vals {
		items[i] = alignItem{lo: v, hi: v, weight: wts[i]}
	}
	items[2].from = 1 // the only item buffer 1 moves
	x := []float64{0, 0}
	var e alignEval
	e.begin(items)
	e.sweep(items, x, 1)
	e.move(items, x)
	want := weightedMedianVW(&valsWeights{v: slices.Clone(vals), w: slices.Clone(wts)})
	if got := e.median(); got != want {
		t.Fatalf("merged median %v, whole-batch stable median %v", got, want)
	}
	wts[1], wts[2] = wts[2], wts[1]
	if swapped := weightedMedianVW(&valsWeights{v: slices.Clone(vals), w: wts}); swapped == want {
		t.Fatalf("tie order does not matter for these weights (median %v either way)", want)
	}
}

func TestAlignOffKeepsBuffersZero(t *testing.T) {
	c := tinyCircuit(t, 1)
	items := batchItems(c, []int{0, 1}, nil)
	assignWeights(items, 1000, 1)
	res := alignOff(c, items, &alignScratch{})
	for f, v := range res.X {
		if v != 0 {
			t.Fatalf("buffer %d moved in AlignOff: %v", f, v)
		}
	}
	if res.T <= 0 {
		t.Fatalf("T = %v", res.T)
	}
}

// batchItems builds align items for the given paths with ±3σ windows.
func batchItems(c *circuit.Circuit, paths []int, lambda LambdaFunc) []alignItem {
	if lambda == nil {
		lambda = NoHoldBounds
	}
	items := make([]alignItem, len(paths))
	for i, p := range paths {
		pt := &c.Paths[p]
		mu, sd := pt.Max.Mean, pt.Max.Sigma()
		items[i] = alignItem{
			path: p, from: pt.From, to: pt.To,
			lo: mu - 3*sd, hi: mu + 3*sd,
			lambda: lambda(pt.From, pt.To),
		}
	}
	return items
}

func TestAlignModesAgreeOnObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP cross-check skipped in -short mode")
	}
	// The fast MILP and the paper's big-M MILP must find equal objectives
	// (they are provably the same model); the heuristic must come close.
	c := tinyCircuit(t, 2)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	r := rng.New(7, "alignmodes")
	checked := 0
	for _, batch := range batches {
		if len(batch) < 2 || len(batch) > 5 {
			continue
		}
		if checked >= 3 {
			break
		}
		checked++
		items := batchItems(c, batch, nil)
		// Perturb windows so centers differ.
		for i := range items {
			shift := 0.05 * r.NormFloat64()
			items[i].lo += shift
			items[i].hi += shift
		}
		assignWeights(items, 1000, 1)

		fast, err := alignMILP(c, items, false)
		if err != nil {
			t.Fatal(err)
		}
		paper, err := alignMILP(c, items, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast.Obj-paper.Obj) > 1e-5*(1+math.Abs(fast.Obj)) {
			t.Fatalf("fast %v vs paper %v objective mismatch", fast.Obj, paper.Obj)
		}
		heur := alignHeuristic(c, items, nil, &alignScratch{})
		if heur.Obj < fast.Obj-1e-6 {
			t.Fatalf("heuristic %v beat exact %v — exact solver is wrong", heur.Obj, fast.Obj)
		}
		if heur.Obj > fast.Obj*1.5+1e-6 {
			t.Fatalf("heuristic %v too far above exact %v", heur.Obj, fast.Obj)
		}
	}
	if checked == 0 {
		t.Skip("no suitably sized batches")
	}
}

func TestAlignmentReducesObjectiveVsNoAlignment(t *testing.T) {
	// The whole point of §3.3: moving buffers lets one T partition more
	// ranges. On a batch with spread-out centers the aligned objective must
	// beat the buffers-at-zero objective.
	c := tinyCircuit(t, 3)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	improvedSomewhere := false
	for _, batch := range batches {
		if len(batch) < 3 {
			continue
		}
		items := batchItems(c, batch, nil)
		assignWeights(items, 1000, 1)
		off := alignOff(c, items, &alignScratch{})
		heur := alignHeuristic(c, items, nil, &alignScratch{})
		if heur.Obj < off.Obj-1e-9 {
			improvedSomewhere = true
		}
		if heur.Obj > off.Obj+1e-9 {
			t.Fatalf("alignment made objective worse: %v vs %v", heur.Obj, off.Obj)
		}
	}
	if !improvedSomewhere {
		t.Fatal("alignment never improved any batch — buffers unused")
	}
}

func TestAlignRespectsLattice(t *testing.T) {
	c := tinyCircuit(t, 4)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	items := batchItems(c, batches[0], nil)
	assignWeights(items, 1000, 1)
	res := alignHeuristic(c, items, nil, &alignScratch{})
	for f := 0; f < c.NumFF; f++ {
		if !c.Buf.Buffered[f] {
			if res.X[f] != 0 {
				t.Fatalf("unbuffered FF %d moved", f)
			}
			continue
		}
		if q := c.Buf.Quantize(f, res.X[f]); math.Abs(q-res.X[f]) > 1e-9 {
			t.Fatalf("buffer %d off lattice: %v", f, res.X[f])
		}
		if res.X[f] < c.Buf.Lo[f]-1e-12 || res.X[f] > c.Buf.Hi[f]+1e-12 {
			t.Fatalf("buffer %d out of range: %v", f, res.X[f])
		}
	}
}

func TestAlignRespectsHoldBounds(t *testing.T) {
	c := tinyCircuit(t, 5)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	// Impose a mild hold bound on every batch arc.
	lambda := func(from, to int) float64 {
		step := 0.0
		if c.Buf.Buffered[from] {
			step = c.Buf.StepSize(from)
		} else if c.Buf.Buffered[to] {
			step = c.Buf.StepSize(to)
		}
		return -4 * step // within easy reach but binding for big shifts
	}
	for _, batch := range batches[:minInt(3, len(batches))] {
		items := batchItems(c, batch, lambda)
		assignWeights(items, 1000, 1)
		res := alignHeuristic(c, items, nil, &alignScratch{})
		for _, it := range items {
			if res.X[it.from]-res.X[it.to] < it.lambda-1e-9 {
				t.Fatalf("hold bound violated: x%d-x%d = %v < %v",
					it.from, it.to, res.X[it.from]-res.X[it.to], it.lambda)
			}
		}
	}
}

func TestAlignMILPRespectsHoldBounds(t *testing.T) {
	c := tinyCircuit(t, 6)
	batches := FormBatches(c, rangeInts(c.NumPaths()), DefaultConfig())
	var batch []int
	for _, b := range batches {
		if len(b) >= 2 && len(b) <= 4 {
			batch = b
			break
		}
	}
	if batch == nil {
		t.Skip("no small batch")
	}
	lambda := func(from, to int) float64 { return -0.01 }
	items := batchItems(c, batch, lambda)
	assignWeights(items, 1000, 1)
	res, err := alignMILP(c, items, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if res.X[it.from]-res.X[it.to] < it.lambda-1e-6 {
			t.Fatalf("MILP hold bound violated")
		}
	}
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
