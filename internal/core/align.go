package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"effitest/internal/circuit"
	"effitest/internal/lp"
	"effitest/internal/mip"
)

// alignItem is one unresolved path inside a batch during aligned testing.
type alignItem struct {
	path     int     // circuit path id
	from, to int     // FF endpoints
	lo, hi   float64 // current bounds [l, u] on the path delay D
	lambda   float64 // hold bound λ for (from,to); -Inf when absent
	weight   float64 // §3.3 center priority
}

func (it alignItem) center() float64 { return (it.lo + it.hi) / 2 }

// assignWeights implements the paper's weighting: sort the range centers,
// give k0 to the middle of the sorted list and decrease by kd per rank step
// away from the middle (k0 ≫ kd keeps middle ranges slightly prioritized,
// resolving the non-overlapping tie of Figure 6e).
func assignWeights(items []alignItem, k0, kd float64) {
	assignWeightsInto(items, k0, kd, nil)
}

// assignWeightsInto is assignWeights over a caller-owned rank buffer, so
// the per-frequency-step hot loop reuses one allocation; it returns the
// (possibly grown) buffer for the caller to keep.
func assignWeightsInto(items []alignItem, k0, kd float64, idx []int) []int {
	idx = idx[:0]
	for i := range items {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return items[idx[a]].center() < items[idx[b]].center() })
	mid := (len(idx) - 1) / 2
	for rank, i := range idx {
		w := k0 - kd*math.Abs(float64(rank-mid))
		if w < 1 {
			w = 1
		}
		items[i].weight = w
	}
	return idx
}

// alignResult carries the per-iteration solve outcome: the clock period to
// apply and the buffer values (full per-FF vector; unbuffered FFs at 0).
type alignResult struct {
	T   float64
	X   []float64
	Obj float64
}

// alignScratch holds the heuristic solvers' reusable buffers. One lives in
// every chipScratch, so the per-frequency-step solves of a whole chip
// stream share a handful of allocations. The returned alignResult.X
// aliases the scratch and is valid until the next solve on it — exactly
// the lifetime runBatchTest needs (step the tester, update bounds, warm-
// start the next solve).
type alignScratch struct {
	x, bestX []float64
	restart  [3][]float64
	bufs     []int
	eval     alignEval
}

// resizeF returns s with length n, reusing its capacity when possible.
// Contents are unspecified.
func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// alignSolve dispatches on the configured mode. Buffered FFs not touched by
// the batch keep their previous values (vector prev, may be nil for all-
// zero). A nil scr degrades to one-shot buffers.
func alignSolve(c *circuit.Circuit, items []alignItem, prev []float64, cfg Config, scr *alignScratch) (alignResult, error) {
	if scr == nil {
		scr = &alignScratch{}
	}
	switch cfg.AlignMode {
	case AlignOff:
		return alignOff(c, items, scr), nil
	case AlignHeuristic:
		return alignHeuristic(c, items, prev, scr), nil
	case AlignFastMILP:
		return alignMILP(c, items, false)
	case AlignPaperILP:
		return alignMILP(c, items, true)
	default:
		return alignResult{}, fmt.Errorf("core: unknown align mode %d", cfg.AlignMode)
	}
}

// alignEval scores buffer moves for the weighted-median alignment
// incrementally. A sweep varies one buffer f with every other buffer held:
// the items whose path neither starts nor ends at f ("rest") keep their
// shifted centres for the whole sweep, so they are shifted, ordered and
// hold-checked once per sweep, and each candidate value of x[f] redoes
// only the items it moves, merging them into the rest's order.
//
// Scores are bit-identical to re-sorting the whole batch per candidate:
// value ties are ordered by item index (the order a stable sort keeps),
// every shifted centre is the one expression cen + x[from] - x[to], the
// objective sums in item order, and the weight total is fixed per solve
// only when every weight is a non-negative integer (exact in any order);
// otherwise it is summed per candidate in median order.
type alignEval struct {
	cen, sh, w []float64 // per item: window centre; shifted centre under x; weight
	rest       []int     // items the sweep leaves alone, by (sh, index)
	moved      []int     // items the sweep's buffer moves, by (sh, index)
	restBad    bool      // some rest item violates its hold bound
	total      float64   // Σ weight, valid when exact
	exact      bool
}

// begin caches the per-solve quantities: centres, weights and their total.
func (e *alignEval) begin(items []alignItem) {
	e.cen = resizeF(e.cen, len(items))
	e.sh = resizeF(e.sh, len(items))
	e.w = resizeF(e.w, len(items))
	e.total, e.exact = 0, true
	for i, it := range items {
		e.cen[i], e.w[i] = it.center(), it.weight
		e.total += it.weight
		e.exact = e.exact && it.weight >= 0 && it.weight == math.Trunc(it.weight)
	}
	// Non-negative integers below 2^53 sum exactly in any order.
	e.exact = e.exact && e.total < 1<<53
}

// sweep prepares to score moves of buffer f (f < 0: nothing moves). A nil
// x scores the unshifted centres, without hold checks.
func (e *alignEval) sweep(items []alignItem, x []float64, f int) {
	e.rest, e.moved, e.restBad = e.rest[:0], e.moved[:0], false
	for i, it := range items {
		switch {
		case it.from == f || it.to == f:
			e.moved = append(e.moved, i)
		case x == nil:
			e.sh[i] = e.cen[i]
			e.rest = append(e.rest, i)
		default:
			e.sh[i] = e.cen[i] + x[it.from] - x[it.to]
			e.rest = append(e.rest, i)
			e.restBad = e.restBad || holdBroken(it, x)
		}
	}
	sortByShift(e.rest, e.sh)
}

// move re-shifts and re-orders the items the sweep's buffer moves, for the
// current x, and reports whether the batch violates a hold bound.
func (e *alignEval) move(items []alignItem, x []float64) (bad bool) {
	bad = e.restBad
	for _, i := range e.moved {
		it := items[i]
		e.sh[i] = e.cen[i] + x[it.from] - x[it.to]
		bad = bad || holdBroken(it, x)
	}
	sortByShift(e.moved, e.sh)
	return bad
}

// score returns T re-optimised in closed form (the weighted median of the
// shifted centres, floored at 0) and the objective Σ w|T - shifted centre|.
func (e *alignEval) score() (t, obj float64) {
	if t = e.median(); t < 0 {
		t = 0
	}
	sh := e.sh[:len(e.w)]
	for i, w := range e.w {
		obj += w * math.Abs(t-sh[i])
	}
	return t, obj
}

// full scores x from scratch: every item is shifted, ordered and
// hold-checked (restBad then reports the whole batch).
func (e *alignEval) full(items []alignItem, x []float64) (t, obj float64) {
	e.sweep(items, x, -1)
	return e.score()
}

// median returns the weighted median of the shifted centres, the value
// minimizing Σ w|t - v|: the first value, in order, at which the running
// weight reaches half the total.
func (e *alignEval) median() float64 {
	total := e.total
	if !e.exact {
		_, total = e.walk(math.NaN()) // acc >= NaN never holds: sums every weight
	}
	k, _ := e.walk(total / 2)
	if k < 0 {
		return 0
	}
	return e.sh[k]
}

// walk merges rest and moved in (sh, index) order, adding up weights until
// the sum reaches stop. It returns the item reached (the last item when the
// sum never reaches stop; -1 for no items) and the sum.
func (e *alignEval) walk(stop float64) (k int, acc float64) {
	k = -1
	r := e.rest
	for _, m := range e.moved {
		for ; len(r) > 0 && shiftLess(e.sh, r[0], m); r = r[1:] {
			if acc += e.w[r[0]]; acc >= stop {
				return r[0], acc
			}
		}
		if acc += e.w[m]; acc >= stop {
			return m, acc
		}
		k = m
	}
	for _, k = range r {
		if acc += e.w[k]; acc >= stop {
			break
		}
	}
	return k, acc
}

// shiftLess orders items by shifted centre, ties by index.
func shiftLess(sh []float64, a, b int) bool {
	return sh[a] < sh[b] || sh[a] == sh[b] && a < b
}

// sortByShift insertion-sorts item indices by (sh, index). Per candidate it
// sorts only the few moved items; per sweep, the rest of the batch.
func sortByShift(idx []int, sh []float64) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		j := i - 1
		for ; j >= 0 && shiftLess(sh, v, idx[j]); j-- {
			idx[j+1] = idx[j]
		}
		idx[j+1] = v
	}
}

// alignOff keeps buffers at zero and picks the weighted median of centers.
func alignOff(c *circuit.Circuit, items []alignItem, scr *alignScratch) alignResult {
	scr.x = resizeF(scr.x, c.NumFF)
	x := scr.x
	clear(x)
	e := &scr.eval
	e.begin(items)
	e.sweep(items, nil, -1)
	t := e.median()
	return alignResult{T: t, X: x, Obj: alignObjective(items, t, x)}
}

// alignObjective evaluates Σ w|T - (center + x_i - x_j)|.
func alignObjective(items []alignItem, T float64, x []float64) float64 {
	s := 0.0
	for _, it := range items {
		s += it.weight * math.Abs(T-(it.center()+x[it.from]-x[it.to]))
	}
	return s
}

// holdBroken reports whether x violates the item's hold bound.
func holdBroken(it alignItem, x []float64) bool {
	return !math.IsInf(it.lambda, -1) && x[it.from]-x[it.to] < it.lambda-1e-12
}

// alignHeuristic is weighted-median coordinate descent over the buffer
// lattice: T is re-optimized in closed form; each touched buffer scans its
// lattice, skipping values that violate any hold bound of the batch.
// Candidates are scored incrementally (alignEval).
func alignHeuristic(c *circuit.Circuit, items []alignItem, prev []float64, scr *alignScratch) alignResult {
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

	e := &scr.eval
	e.begin(items)

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
		_, best := e.full(items, x)
		if e.restBad {
			best = math.Inf(1)
		}
		scan := func() {
			if e.move(items, x) {
				return
			}
			if _, obj := e.score(); obj < best-1e-12 {
				best = obj
				copy(bestX, x)
			}
		}
		switch len(bufs) {
		case 1:
			e.sweep(items, x, bufs[0])
			for k := 0; k <= steps; k++ {
				x[bufs[0]] = latticeValue(bufs[0], k)
				scan()
			}
		case 2:
			for k0 := 0; k0 <= steps; k0++ {
				x[bufs[0]] = latticeValue(bufs[0], k0)
				e.sweep(items, x, bufs[1])
				for k1 := 0; k1 <= steps; k1++ {
					x[bufs[1]] = latticeValue(bufs[1], k1)
					scan()
				}
			}
		}
		copy(x, bestX)
		t, obj := e.full(items, x)
		return alignResult{T: t, X: x, Obj: obj}
	}

	// Multi-start coordinate descent for batches touching many buffers.
	descend := func() float64 {
		repairHolds(c, items, bufs, x)
		_, best := e.full(items, x)
		const maxPasses = 25
		for pass := 0; pass < maxPasses; pass++ {
			improved := false
			for _, f := range bufs {
				cur := x[f]
				bestV, bestObj := cur, best
				e.sweep(items, x, f)
				for k := 0; k <= steps && !e.restBad; k++ {
					v := latticeValue(f, k)
					if v == cur {
						continue
					}
					x[f] = v
					if e.move(items, x) {
						continue
					}
					if _, obj := e.score(); obj < bestObj-1e-12 {
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
		t, obj := e.full(items, x)
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
	t, obj := e.full(items, x)
	return alignResult{T: t, X: x, Obj: obj}
}

// repairHolds makes x hold-feasible for the batch: as long as some item's
// bound is violated, raise its source buffer or lower its sink buffer by one
// lattice step where possible.
func repairHolds(c *circuit.Circuit, items []alignItem, bufs []int, x []float64) {
	for round := 0; round < 4*len(items)+8; round++ {
		fixed := true
		for _, it := range items {
			if math.IsInf(it.lambda, -1) {
				continue
			}
			if x[it.from]-x[it.to] >= it.lambda-1e-12 {
				continue
			}
			fixed = false
			sf, st := c.Buf.StepSize(it.from), c.Buf.StepSize(it.to)
			if c.Buf.Buffered[it.from] && x[it.from]+sf <= c.Buf.Hi[it.from]+1e-12 {
				x[it.from] = c.Buf.Quantize(it.from, x[it.from]+sf)
			} else if c.Buf.Buffered[it.to] && x[it.to]-st >= c.Buf.Lo[it.to]-1e-12 {
				x[it.to] = c.Buf.Quantize(it.to, x[it.to]-st)
			}
		}
		if fixed {
			return
		}
	}
}

// alignMILP builds and solves the alignment model exactly. With paperBigM
// true it is the faithful Eqs. (7)–(14) big-M formulation (plus the implied
// z⁺+z⁻=1); otherwise the equivalent direct absolute-value model. Buffer
// values are integer lattice points in both cases.
func alignMILP(c *circuit.Circuit, items []alignItem, paperBigM bool) (alignResult, error) {
	p := mip.NewProblem()

	tMax := 0.0
	span := 0.0
	for _, it := range items {
		for _, f := range [2]int{it.from, it.to} {
			if c.Buf.Buffered[f] {
				if w := c.Buf.Hi[f] - c.Buf.Lo[f]; w > span {
					span = w
				}
			}
		}
		if it.hi > tMax {
			tMax = it.hi
		}
	}
	tMax += 2*span + 1

	tVar := p.AddVar("T", 0, tMax, 0)

	// One integer step variable per touched buffered FF.
	type bufVar struct {
		v    int
		lo   float64
		step float64
	}
	bufOf := map[int]bufVar{}
	xTerm := func(f int, sign float64) (lp.Term, float64, bool) {
		// Returns the term for x_f = lo + step·n and the constant offset
		// contributed; ok=false when the FF is unbuffered (x=0).
		if !c.Buf.Buffered[f] {
			return lp.Term{}, 0, false
		}
		bv, ok := bufOf[f]
		if !ok {
			bv = bufVar{
				v:    p.AddIntVar(fmt.Sprintf("n%d", f), 0, float64(c.Buf.Steps), 0),
				lo:   c.Buf.Lo[f],
				step: c.Buf.StepSize(f),
			}
			bufOf[f] = bv
		}
		return lp.Term{Var: bv.v, Coef: sign * bv.step}, sign * bv.lo, true
	}

	etas := make([]int, len(items))
	bigM := 4 * (tMax + span + 10)
	for i, it := range items {
		etas[i] = p.AddVar(fmt.Sprintf("eta%d", i), 0, lp.Inf, it.weight)
		c0 := it.center()

		// Build the linear expression e := T - c0 - (x_i - x_j) as terms +
		// constant: e = T - x_i + x_j - c0.
		var baseTerms []lp.Term
		baseConst := -c0
		baseTerms = append(baseTerms, lp.Term{Var: tVar, Coef: 1})
		if t, off, ok := xTerm(it.from, -1); ok {
			baseTerms = append(baseTerms, t)
			baseConst += off
		}
		if t, off, ok := xTerm(it.to, 1); ok {
			baseTerms = append(baseTerms, t)
			baseConst += off
		}

		if !paperBigM {
			// η ≥ e  and  η ≥ -e.
			t1 := append([]lp.Term{{Var: etas[i], Coef: 1}}, negateTerms(baseTerms)...)
			p.AddConstraint("absP", t1, lp.GE, baseConst)
			t2 := append([]lp.Term{{Var: etas[i], Coef: 1}}, baseTerms...)
			p.AddConstraint("absN", t2, lp.GE, -baseConst)
		} else {
			zp := p.AddBinVar(fmt.Sprintf("zp%d", i), 0)
			zn := p.AddBinVar(fmt.Sprintf("zn%d", i), 0)
			// (8)  e ≤ M z⁺
			p.AddConstraint("eq8", append(cloneTerms(baseTerms), lp.Term{Var: zp, Coef: -bigM}), lp.LE, -baseConst)
			// (9)  e - η ≤ M(1-z⁺)
			p.AddConstraint("eq9", append(cloneTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: -1}, lp.Term{Var: zp, Coef: bigM}), lp.LE, -baseConst+bigM)
			// (10) -e + η ≤ M(1-z⁺)
			p.AddConstraint("eq10", append(negateTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: 1}, lp.Term{Var: zp, Coef: bigM}), lp.LE, baseConst+bigM)
			// (11) -e ≤ M z⁻
			p.AddConstraint("eq11", append(negateTerms(baseTerms), lp.Term{Var: zn, Coef: -bigM}), lp.LE, baseConst)
			// (12) -e - η ≤ M(1-z⁻)
			p.AddConstraint("eq12", append(negateTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: -1}, lp.Term{Var: zn, Coef: bigM}), lp.LE, baseConst+bigM)
			// (13) e + η ≤ M(1-z⁻)
			p.AddConstraint("eq13", append(cloneTerms(baseTerms),
				lp.Term{Var: etas[i], Coef: 1}, lp.Term{Var: zn, Coef: bigM}), lp.LE, -baseConst+bigM)
			// Implied case selection: exactly one side active.
			p.AddConstraint("zsum", []lp.Term{{Var: zp, Coef: 1}, {Var: zn, Coef: 1}}, lp.EQ, 1)
		}

		// Hold bound (21): x_i - x_j ≥ λ.
		if !math.IsInf(it.lambda, -1) {
			var ht []lp.Term
			hc := it.lambda
			if t, off, ok := xTerm(it.from, 1); ok {
				ht = append(ht, t)
				hc -= off
			}
			if t, off, ok := xTerm(it.to, -1); ok {
				ht = append(ht, t)
				hc -= off
			}
			if len(ht) > 0 {
				p.AddConstraint("hold", ht, lp.GE, hc)
			} else if hc > 0 {
				return alignResult{}, fmt.Errorf("core: hold bound %v unsatisfiable without buffers", it.lambda)
			}
		}
	}

	sol, err := p.Solve()
	if err != nil {
		return alignResult{}, err
	}
	if sol.Status != lp.StatusOptimal {
		return alignResult{}, fmt.Errorf("core: alignment MILP %v", sol.Status)
	}
	x := make([]float64, c.NumFF)
	for f, bv := range bufOf {
		x[f] = bv.lo + bv.step*math.Round(sol.X[bv.v])
	}
	res := alignResult{T: sol.X[tVar], X: x}
	res.Obj = alignObjective(items, res.T, x)
	return res, nil
}

func cloneTerms(ts []lp.Term) []lp.Term {
	out := make([]lp.Term, len(ts))
	copy(out, ts)
	return out
}

func negateTerms(ts []lp.Term) []lp.Term {
	out := make([]lp.Term, len(ts))
	for i, t := range ts {
		out[i] = lp.Term{Var: t.Var, Coef: -t.Coef}
	}
	return out
}
