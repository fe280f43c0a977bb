// Package repair enforces a target differential fairness on a binary-
// outcome mechanism by post-processing, realizing the paper's §3.2
// recommendation to "alter the mechanism" rather than obfuscate it with
// noise: given the per-intersection positive rates, it computes new
// rates inside a feasible band [a, b] with
//
//	b/a ≤ e^ε   and   (1−a)/(1−b) ≤ e^ε,
//
// so that both outcome ratios satisfy Definition 3.1 at the target ε,
// while minimizing the population-weighted L1 movement of the rates
// (i.e. the expected fraction of decisions changed). The repaired rates
// are realized as a per-group randomized post-processing: flip some
// positive decisions to negative (or vice versa) with the computed
// mixing probability.
//
// Two planners share the band math: Binary computes the unconstrained
// minimal-movement band, and BinaryNoLevelingDown restricts the band to
// contain the maximum observed rate so no group's positive rate is ever
// lowered — the "fair without leveling down" discipline: the repair only
// raises worse-off groups, at the price of more expected movement.
//
// For serving paths a Plan compiles into an Applier whose ApplyBatch
// post-processes whole index arrays of decisions allocation-free, each
// decision's randomness drawn from an independent (seed, ticket)
// substream — repaired decision streams are reproducible and independent
// of how batches are split across calls or goroutines.
package repair

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
)

// GroupPlan is the repair prescription for one intersectional group.
type GroupPlan struct {
	Group   int
	Weight  float64
	OldRate float64
	NewRate float64
	// FlipPosToNeg is the probability with which a positive decision is
	// resampled to negative (when the rate must fall); FlipNegToPos is
	// the reverse (when it must rise). At most one is nonzero.
	FlipPosToNeg float64
	FlipNegToPos float64
}

// Plan is a complete repair: the feasible band and per-group actions.
type Plan struct {
	TargetEpsilon float64
	// Lo and Hi bound the repaired positive rates.
	Lo, Hi float64
	// Movement is the weighted mean |new − old| over groups: the expected
	// fraction of individuals whose decision changes.
	Movement float64
	// LevelingDown is the weighted mean max(0, old − new) over groups:
	// the expected fraction of individuals whose positive decision the
	// repair takes away. Zero for plans from BinaryNoLevelingDown.
	LevelingDown float64
	Groups       []GroupPlan
}

// Binary computes the minimal-movement repair of a binary-outcome CPT to
// the target ε ≥ 0. The CPT must have exactly two outcomes, with outcome
// index 1 treated as "positive". Unsupported groups are ignored; a table
// with fewer than two supported groups (all mass on one intersection, or
// no mass at all) fails with an error wrapping core.ErrDegenerateSupport
// rather than producing NaN rates.
func Binary(cpt *core.CPT, targetEps float64) (Plan, error) {
	return compute(cpt, targetEps, false)
}

// BinaryNoLevelingDown is Binary under the no-leveling-down constraint:
// the feasible band must contain the maximum observed rate, so every
// group's positive rate is weakly raised, never lowered. The optimal
// such band has a closed form — b = max rate, a as low as the two ratio
// constraints permit — and costs at least as much movement as the
// unconstrained plan. Note the constraint can be expensive: a supported
// group at rate 1 forces every group to rate 1.
func BinaryNoLevelingDown(cpt *core.CPT, targetEps float64) (Plan, error) {
	return compute(cpt, targetEps, true)
}

func compute(cpt *core.CPT, targetEps float64, noLevelingDown bool) (Plan, error) {
	if cpt.NumOutcomes() != 2 {
		return Plan{}, fmt.Errorf("repair: need a binary-outcome CPT, got %d outcomes", cpt.NumOutcomes())
	}
	if targetEps < 0 || math.IsNaN(targetEps) || math.IsInf(targetEps, 0) {
		return Plan{}, fmt.Errorf("repair: invalid target epsilon %v", targetEps)
	}
	if err := cpt.Validate(); err != nil {
		return Plan{}, err
	}
	groups, rates, weights, err := cpt.BinaryRates()
	if err != nil {
		return Plan{}, err
	}
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	var lo, hi float64
	if noLevelingDown {
		lo, hi = floorBand(rates, targetEps)
	} else {
		lo, hi = bestBand(rates, weights, targetEps)
	}
	plan := Plan{TargetEpsilon: targetEps, Lo: lo, Hi: hi}
	var movement, leveled float64
	for i, g := range groups {
		old := rates[i]
		nw := clamp(old, lo, hi)
		gp := GroupPlan{Group: g, Weight: weights[i], OldRate: old, NewRate: nw}
		switch {
		case nw < old && old > 0:
			// Realize the lower rate by flipping positives to negatives:
			// new = old * (1 - flip).
			gp.FlipPosToNeg = (old - nw) / old
		case nw > old && old < 1:
			// new = old + (1-old)*flip.
			gp.FlipNegToPos = (nw - old) / (1 - old)
		}
		movement += weights[i] * math.Abs(nw-old)
		if old > nw {
			leveled += weights[i] * (old - nw)
		}
		plan.Groups = append(plan.Groups, gp)
	}
	plan.Movement = movement / totalW
	plan.LevelingDown = leveled / totalW
	return plan, nil
}

// bandUpper returns the widest feasible upper endpoint for a band with
// lower endpoint a at the given ε:
//
//	b(a) = min(a·e^ε, 1 − (1−a)·e^-ε),
//
// the first term from the positive-outcome ratio, the second from the
// negative-outcome ratio. The negative-outcome term is computed via the
// complement q = 1−b = (1−a)·e^-ε — the direct form suffers catastrophic
// cancellation as a → 1, where fuzzing found bands whose realized
// (1−a)/(1−b) overshoots e^ε by percents — and the result is then
// nudged down by ulps until the float pair itself satisfies both ratio
// constraints exactly as core.Epsilon will measure them on the repaired
// CPT.
func bandUpper(a, eps float64) float64 {
	if eps == 0 {
		return a // exact parity: the band is a point
	}
	// Each bound is computed in the space where it is cancellation-free:
	// the positive-outcome bound as a direct product (exact to ulps at
	// any scale), the negative-outcome bound through the complement —
	// whenever it binds, its value is ≥ 1/2, so the 1−q round trip costs
	// at most a relative ulp.
	bPos := a * math.Exp(eps)
	bNeg := 1 - (1-a)*math.Exp(-eps)
	b := math.Min(bPos, bNeg)
	if b <= a {
		return a
	}
	if b >= 1 {
		if a >= 1 {
			return 1
		}
		// A band touching 1 while a group sits below would make the
		// negative outcome impossible for some groups only: ε = +Inf.
		b = math.Nextafter(1, 0)
	}
	// Shave off float rounding: the returned pair must satisfy both
	// ratio constraints exactly as core.Epsilon measures them on the
	// repaired CPT. A handful of ulps at most by the analysis above; the
	// iteration cap (falling back to the always-feasible point band)
	// guards the serving path against any unforeseen corner.
	for iter := 0; b > a; iter++ {
		if iter > 256 {
			return a
		}
		if math.Log(b)-math.Log(a) <= eps && math.Log(1-a)-math.Log(1-b) <= eps {
			break
		}
		b = math.Nextafter(b, a)
	}
	return b
}

// bestBand finds the feasible band [a, b(a)] minimizing the weighted L1
// movement of clipping rates into it. The movement objective is
// piecewise smooth in a with kinks where band endpoints cross data
// rates, so a dense grid over the candidate range followed by local
// ternary refinement finds the optimum to high precision.
func bestBand(rates, weights []float64, eps float64) (lo, hi float64) {
	minR, maxR := rates[0], rates[0]
	for _, r := range rates {
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if bandUpper(minR, eps) >= maxR {
		return minR, maxR // already fair at this ε: no movement
	}
	cost := func(a float64) float64 {
		b := bandUpper(a, eps)
		var c float64
		for i, r := range rates {
			c += weights[i] * math.Abs(clamp(r, a, b)-r)
		}
		return c
	}
	// Candidate range for a: [0+, maxR]. Seed with a dense grid plus the
	// exact data rates and their pullbacks.
	candidates := make([]float64, 0, 512)
	const gridN = 400
	loA, hiA := math.Max(minR*math.Exp(-eps), 1e-9), maxR
	for i := 0; i <= gridN; i++ {
		candidates = append(candidates, loA+(hiA-loA)*float64(i)/gridN)
	}
	for _, r := range rates {
		candidates = append(candidates, r, math.Max(r*math.Exp(-eps), 1e-9))
	}
	sort.Float64s(candidates)
	bestA, bestC := candidates[0], math.Inf(1)
	for _, a := range candidates {
		if a <= 0 || a > 1 {
			continue
		}
		if c := cost(a); c < bestC {
			bestC, bestA = c, a
		}
	}
	// Local refinement around the best grid point.
	step := (hiA - loA) / gridN
	left, right := math.Max(bestA-step, 1e-9), math.Min(bestA+step, 1)
	for iter := 0; iter < 80; iter++ {
		m1 := left + (right-left)/3
		m2 := right - (right-left)/3
		if cost(m1) <= cost(m2) {
			right = m2
		} else {
			left = m1
		}
	}
	a := (left + right) / 2
	if cost(bestA) < cost(a) {
		a = bestA
	}
	return a, bandUpper(a, eps)
}

// floorBand is the no-leveling-down band: b pinned at the maximum rate
// (no group moves down), a as low as the two ratio constraints permit —
//
//	a ≥ b·e^-ε  (positive-outcome ratio)  and
//	a ≥ 1 − (1−b)·e^ε  (negative-outcome ratio).
//
// Both lower bounds are increasing in b, so b = maxR is optimal among
// all bands containing maxR and the minimum-movement choice is closed
// form.
func floorBand(rates []float64, eps float64) (lo, hi float64) {
	minR, maxR := rates[0], rates[0]
	for _, r := range rates {
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if bandUpper(minR, eps) >= maxR {
		return minR, maxR // already fair at this ε: no movement
	}
	if eps == 0 || 1-maxR == 0 {
		// Exact parity, or a supported group already at rate 1 (which
		// admits no band below 1): every group is raised all the way.
		return maxR, maxR
	}
	a := clamp(math.Max(maxR*math.Exp(-eps), 1-(1-maxR)*math.Exp(eps)), 0, maxR)
	// As in bandUpper, shave off float rounding (the 1−(1−maxR)·e^ε term
	// cancels catastrophically as maxR → 1): raise a by ulps until the
	// float pair satisfies both ratio constraints as measured, falling
	// back to the always-feasible point band if a corner resists.
	for iter := 0; a < maxR; iter++ {
		if iter > 256 {
			return maxR, maxR
		}
		if math.Log(maxR)-math.Log(a) <= eps && math.Log(1-a)-math.Log(1-maxR) <= eps {
			break
		}
		a = math.Nextafter(a, maxR)
	}
	return a, maxR
}

// Apply returns the repaired CPT implied by the plan: every group's
// positive rate replaced by its NewRate, weights preserved.
func (p Plan) Apply(cpt *core.CPT) (*core.CPT, error) {
	if cpt.NumOutcomes() != 2 {
		return nil, fmt.Errorf("repair: need a binary-outcome CPT")
	}
	out := cpt.Clone()
	for _, gp := range p.Groups {
		if err := out.SetRow(gp.Group, cpt.Weight(gp.Group), 1-gp.NewRate, gp.NewRate); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Applier is a Plan compiled for the batched serving path: flip
// probabilities densely indexed by group, plus the seed of the
// deterministic randomization. ApplyBatch is allocation-free and safe
// for concurrent use (it holds no mutable state), so one Applier can
// serve every decision request of a deployment.
type Applier struct {
	flipPos []float64
	flipNeg []float64
	covered []bool
	seed    uint64
}

// NewApplier compiles the plan for a space of numGroups groups. Every
// plan group must fall inside [0, numGroups); decisions may only be
// requested for groups the plan covers.
func (p Plan) NewApplier(numGroups int, seed uint64) (*Applier, error) {
	if numGroups <= 0 {
		return nil, fmt.Errorf("repair: NewApplier: need a positive group count, got %d", numGroups)
	}
	if len(p.Groups) == 0 {
		return nil, fmt.Errorf("repair: NewApplier: empty plan")
	}
	a := &Applier{
		flipPos: make([]float64, numGroups),
		flipNeg: make([]float64, numGroups),
		covered: make([]bool, numGroups),
		seed:    seed,
	}
	for _, gp := range p.Groups {
		if gp.Group < 0 || gp.Group >= numGroups {
			return nil, fmt.Errorf("repair: NewApplier: plan group %d outside [0, %d)", gp.Group, numGroups)
		}
		a.flipPos[gp.Group] = gp.FlipPosToNeg
		a.flipNeg[gp.Group] = gp.FlipNegToPos
		a.covered[gp.Group] = true
	}
	return a, nil
}

// ApplyBatch post-processes a batch of decisions in place: decision i of
// group groups[i] is flipped with the plan's mixing probability, drawing
// its uniform variate from rng substream (seed, ticket+i). The ticket
// identifies the batch's position in the global decision sequence, so
// output depends only on (seed, per-decision ticket) — splitting one
// batch into several (with the corresponding tickets) or racing batches
// from many goroutines yields the same decisions. The whole batch is
// validated before any element is modified; the hot path performs no
// allocations (the dfvet hotpath analyzer and the BenchmarkHotPath
// 0 allocs/op gate both enforce this). Returns the number of decisions
// changed.
//
//df:hotpath
func (a *Applier) ApplyBatch(ticket uint64, groups, decisions []int) (int, error) {
	if err := a.validateBatch(groups, decisions); err != nil {
		return 0, err
	}
	changed := 0
	var r rng.RNG
	for i, g := range groups {
		var p float64
		if decisions[i] == 1 {
			p = a.flipPos[g]
		} else {
			p = a.flipNeg[g]
		}
		if p == 0 {
			continue
		}
		// Each decision owns substream ticket+i: the draw is independent
		// of every other decision and of shared RNG state, which is what
		// makes the output invariant to batch splits and goroutine races.
		r.SeedStream(a.seed, ticket+uint64(i))
		if r.Float64() < p {
			decisions[i] = 1 - decisions[i]
			changed++
		}
	}
	return changed, nil
}

// validateBatch is ApplyBatch's cold prologue, kept out of the annotated
// hot function so its error formatting never costs the success path an
// allocation: when the batch is valid (the steady state) it touches only
// the index arrays; errors allocate, but only on the reject path.
func (a *Applier) validateBatch(groups, decisions []int) error {
	if len(groups) != len(decisions) {
		return fmt.Errorf("repair: ApplyBatch got %d groups vs %d decisions", len(groups), len(decisions))
	}
	for i, g := range groups {
		if g < 0 || g >= len(a.covered) {
			return fmt.Errorf("repair: batch element %d: group %d out of range", i, g)
		}
		if !a.covered[g] {
			return fmt.Errorf("repair: batch element %d: group %d not covered by plan", i, g)
		}
		if d := decisions[i]; d != 0 && d != 1 {
			return fmt.Errorf("repair: batch element %d: decision %d is not binary", i, d)
		}
	}
	return nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
