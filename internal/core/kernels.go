package core

// This file holds the plan-time prediction kernels: the conditional
// structure of §3.2/§3.4 — which tested paths condition which untested
// paths, per correlation group — is fixed the moment the Plan's tested set
// is final, so Prepare (and Bind, when a plan is restored from an artifact)
// prefactorizes it once. Per chip, conditional prediction then reduces to
// one triangular solve + matrix-vector product per group over a pooled
// scratch workspace: no maps, no matrix allocation, no re-factorization,
// and results bit-identical to the naive groupMVN+Conditional path (pinned
// by the differential tests).

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"effitest/internal/circuit"
	"effitest/internal/la"
	"effitest/internal/pool"
	"effitest/internal/stats"
)

// groupKernel is one correlation group's baked conditional predictor.
type groupKernel struct {
	group   int   // index into Plan.Groups
	known   []int // global tested path ids, in group order
	unknown []int // global predicted path ids, in group order
	// pred is nil when the group has no measured path; PredictBounds then
	// keeps the prior ±3σ windows and sigma holds the marginal prior σ.
	pred *stats.CondPredictor
	// sigma is the conditional σ′ per unknown path (Eq. 5) — it depends
	// only on the covariance, never on a chip's measurements, so it is a
	// plan-time constant.
	sigma []float64
}

// predictKernels is the baked prediction state of one Plan.
type predictKernels struct {
	groups     []groupKernel
	scratchLen int // workspace floats predictBounds takes for its largest group
	predGroups int // groups with at least one measured path
	predPaths  int // untested paths predicted per chip
}

// bakePredictKernels prefactorizes the conditional predictors for the given
// tested set: per group, the ridged Cholesky of Σ_t, the cross-covariance
// gain and the conditional sigmas. Groups are independent, so the bake fans
// out across workers goroutines (0 = all CPUs) — on a large circuit this is
// the expensive tail of Prepare/Bind, and warm plan-cache loads pay it on
// every process start. Results are deterministic: each group's kernel is a
// pure function of (circuit, group, tested) and the output keeps group
// order.
func bakePredictKernels(ctx context.Context, c *circuit.Circuit, groups []Group, tested []int, workers int) (*predictKernels, error) {
	testedSet := make(map[int]bool, len(tested))
	for _, p := range tested {
		testedSet[p] = true
	}
	// The group covariance cache on the circuit is filled lazily; touch it
	// once up front so the parallel bake reads it without contention.
	c.CovMatrix()

	perGroup := make([]*groupKernel, len(groups))
	bakeOne := func(gi int) error {
		g := &groups[gi]
		known, unknown := splitGroup(*g, testedSet)
		if len(unknown) == 0 {
			return nil
		}
		mvn, err := groupMVN(c, *g)
		if err != nil {
			return err
		}
		gk := &groupKernel{group: gi, known: known, unknown: unknown, sigma: make([]float64, len(unknown))}
		localUnknown := localIndices(g.Paths, unknown)
		if len(known) == 0 {
			// No measured path: σ′ degrades to the marginal prior sigma —
			// the same values the naive PredictSigmas reports through
			// Conditional's zero-known arm.
			sub := mvn.Sigma.Submatrix(localUnknown, localUnknown)
			for i := range unknown {
				gk.sigma[i] = math.Sqrt(math.Max(sub.At(i, i), 0))
			}
		} else {
			localKnown := localIndices(g.Paths, known)
			pred, err := mvn.Predictor(localUnknown, localKnown)
			if err != nil {
				return fmt.Errorf("core: group %d predictor: %w", gi, err)
			}
			gk.pred = pred
			for i := range unknown {
				gk.sigma[i] = math.Sqrt(math.Max(pred.SigmaPrime.At(i, i), 0))
			}
		}
		perGroup[gi] = gk
		return nil
	}
	if err := pool.ForEach(ctx, len(groups), workers, bakeOne); err != nil {
		return nil, err
	}

	ks := &predictKernels{}
	for _, gk := range perGroup {
		if gk == nil {
			continue
		}
		if gk.pred != nil {
			if need := len(gk.known) + len(gk.unknown) + gk.pred.ScratchLen(); need > ks.scratchLen {
				ks.scratchLen = need
			}
			ks.predGroups++
			ks.predPaths += len(gk.unknown)
		}
		ks.groups = append(ks.groups, *gk)
	}
	return ks, nil
}

// predictOne applies one baked group predictor to a single chip's bounds:
// gather the measured upper bounds, one triangular solve + matvec (Eq. 4),
// scatter the μ′ ± 3σ′ windows back. Allocation-free once ws is warm.
func (gk *groupKernel) predictOne(b *Bounds, ws *la.Workspace) {
	ws.Reset()
	obs := ws.Take(len(gk.known))
	for j, k := range gk.known {
		obs[j] = b.Hi[k] // conservative: measured upper bounds
	}
	mu := ws.Take(len(gk.unknown))
	gk.pred.MuTo(mu, obs, ws)
	for j, p := range gk.unknown {
		sigma := gk.sigma[j]
		m := mu[j]
		lo := m - 3*sigma
		if lo < 0 {
			lo = 0
		}
		b.Lo[p] = lo
		b.Hi[p] = m + 3*sigma
	}
}

// predictBounds is the per-chip fast path of PredictBounds: apply every
// baked group predictor to the measured upper bounds in b and write the
// μ′ ± 3σ′ windows back. Bit-identical to the naive path; allocation-free
// once ws is warm (Require(scratchLen)).
func (ks *predictKernels) predictBounds(b *Bounds, ws *la.Workspace) {
	for i := range ks.groups {
		gk := &ks.groups[i]
		if gk.pred == nil {
			// No measurement available: keep the prior ±3σ windows, exactly
			// like the naive path's degraded-group fallback.
			continue
		}
		gk.predictOne(b, ws)
	}
}

// predictSigmas scatters the baked σ′ into a per-path slice — the kernel
// counterpart of PredictSigmas evaluated at the plan's own tested set
// (tested paths get NaN).
func (ks *predictKernels) predictSigmas(numPaths int) []float64 {
	out := make([]float64, numPaths)
	for i := range out {
		out[i] = math.NaN()
	}
	for i := range ks.groups {
		gk := &ks.groups[i]
		for j, p := range gk.unknown {
			out[p] = gk.sigma[j]
		}
	}
	return out
}

// bakeKernels prefactorizes the per-group conditional predictors and sets
// up the per-worker scratch pool. Prepare calls it eagerly: the kernels are
// derived state — recomputed, never serialized — so plan artifacts stay
// compact and version-independent of the kernel layout. Bind instead
// defers the bake behind a lazyKernels (see below).
func (pl *Plan) bakeKernels(ctx context.Context) error {
	ks, err := bakePredictKernels(ctx, pl.Circuit, pl.Groups, pl.Tested, pl.Cfg.Workers)
	if err != nil {
		return err
	}
	pl.kernels = ks
	pl.scratch = &sync.Pool{New: func() any { return pl.newChipScratch() }}
	return nil
}

// lazyKernels defers bakePredictKernels to the first chip that needs it.
// Baking is the expensive tail of a warm plan-cache load — one ridged
// Cholesky per group — and a process that loads a plan only to inspect or
// re-serve it should not pay it, so Bind installs this instead of baking
// eagerly. The state is held behind a pointer shared by every shallow copy
// of the plan (resolvePlan and WithoutPredictorKernels copy Plan by value),
// so the bake happens once no matter which copy runs the first chip.
type lazyKernels struct {
	mu  sync.Mutex
	ks  atomic.Pointer[predictKernels]
	err error // sticky bake failure (never a caller's context error)
}

// predictorKernels resolves the plan's baked kernels, baking them on first
// use for lazily-bound plans. It returns (nil, nil) for plans deliberately
// built without kernels (hand-assembled literals, WithoutPredictorKernels) —
// callers then take the naive prediction path. A bake failure is sticky and
// returned to every subsequent chip; a context cancellation during the bake
// is returned to that caller only, leaving the plan bakeable.
func (pl *Plan) predictorKernels(ctx context.Context) (*predictKernels, error) {
	if pl.kernels != nil {
		return pl.kernels, nil
	}
	lz := pl.lazy
	if lz == nil {
		return nil, nil
	}
	if ks := lz.ks.Load(); ks != nil {
		return ks, nil
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if ks := lz.ks.Load(); ks != nil {
		return ks, nil
	}
	if lz.err != nil {
		return nil, lz.err
	}
	ks, err := bakePredictKernels(ctx, pl.Circuit, pl.Groups, pl.Tested, pl.Cfg.Workers)
	if err != nil {
		if ctx.Err() == nil {
			lz.err = err
		}
		return nil, err
	}
	lz.ks.Store(ks)
	return ks, nil
}

// bakedKernels returns the kernels if they exist right now — eager or
// already lazily baked — without triggering a bake.
func (pl *Plan) bakedKernels() *predictKernels {
	if pl.kernels != nil {
		return pl.kernels
	}
	if pl.lazy != nil {
		return pl.lazy.ks.Load()
	}
	return nil
}

// PredictorSigmas returns the baked conditional σ′ per path for the plan's
// tested set (baking lazily-bound plans on demand), or nil when the plan
// has no kernels at all (a hand-assembled literal or a kernel bake
// failure). The differential tests pin it bitwise against PredictSigmas.
func (pl *Plan) PredictorSigmas() []float64 {
	ks, err := pl.predictorKernels(context.Background())
	if err != nil || ks == nil {
		return nil
	}
	return ks.predictSigmas(pl.Circuit.NumPaths())
}

// WithoutPredictorKernels returns a shallow copy of the plan with the baked
// predictors dropped, forcing chip execution onto the naive per-chip
// groupMVN+Conditional path. It exists so the differential tests can pin
// the two paths bit-identical; production code never needs it.
func (pl *Plan) WithoutPredictorKernels() *Plan {
	cp := *pl
	cp.kernels = nil
	cp.lazy = nil
	return &cp
}

// chipScratch is the reusable per-worker state of the online flow: the
// numeric workspace of the prediction kernels plus the alignment buffers
// runBatchTest refills on every frequency step.
type chipScratch struct {
	ws     la.Workspace
	items  []alignItem
	order  []int // assignWeights rank buffer
	active []int
	al     alignScratch
}

// newChipScratch sizes a scratch for this plan: the kernel workspace at its
// baked high-water mark and the alignment buffers at the largest batch.
func (pl *Plan) newChipScratch() *chipScratch {
	scr := &chipScratch{}
	if ks := pl.bakedKernels(); ks != nil {
		scr.ws.Require(ks.scratchLen)
	}
	maxBatch := 0
	for _, b := range pl.Batches {
		if len(b) > maxBatch {
			maxBatch = len(b)
		}
	}
	scr.items = make([]alignItem, 0, maxBatch)
	scr.order = make([]int, 0, maxBatch)
	scr.active = make([]int, 0, maxBatch)
	return scr
}

// getScratch hands out a pooled scratch (workers hold one across many
// chips); a plan built without bakeKernels — a hand-assembled literal in a
// test — degrades to a fresh scratch per call.
func (pl *Plan) getScratch() *chipScratch {
	if pl.scratch == nil {
		return pl.newChipScratch()
	}
	return pl.scratch.Get().(*chipScratch)
}

func (pl *Plan) putScratch(scr *chipScratch) {
	if pl.scratch != nil {
		pl.scratch.Put(scr)
	}
}
