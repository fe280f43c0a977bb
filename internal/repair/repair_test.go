package repair

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mechanism"
	"repro/internal/rng"
)

func binaryCPT(t *testing.T, rates, weights []float64) *core.CPT {
	t.Helper()
	vals := make([]string, len(rates))
	for i := range vals {
		vals[i] = string(rune('a' + i))
	}
	space := core.MustSpace(core.Attr{Name: "g", Values: vals})
	cpt := core.MustCPT(space, []string{"no", "yes"})
	for i, r := range rates {
		cpt.MustSetRow(i, weights[i], 1-r, r)
	}
	return cpt
}

func TestRepairFig2ToTarget(t *testing.T) {
	cpt := mechanism.Fig2CPT()
	before := core.MustEpsilon(cpt).Epsilon
	for _, target := range []float64{1.5, 1.0, 0.5, 0.1} {
		plan, err := Binary(cpt, target)
		if err != nil {
			t.Fatal(err)
		}
		repaired, err := plan.Apply(cpt)
		if err != nil {
			t.Fatal(err)
		}
		after := core.MustEpsilon(repaired).Epsilon
		if after > target+1e-6 {
			t.Errorf("target %v: repaired eps %v exceeds target", target, after)
		}
		if plan.Movement <= 0 {
			t.Errorf("target %v: zero movement on an unfair mechanism", target)
		}
		if plan.Movement >= 1 {
			t.Errorf("target %v: movement %v out of range", target, plan.Movement)
		}
		_ = before
	}
}

func TestRepairNoOpWhenAlreadyFair(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.5, 0.55}, []float64{1, 1})
	eps := core.MustEpsilon(cpt).Epsilon
	plan, err := Binary(cpt, eps+0.01)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Movement != 0 {
		t.Fatalf("movement %v on an already-fair mechanism", plan.Movement)
	}
	for _, gp := range plan.Groups {
		if gp.FlipPosToNeg != 0 || gp.FlipNegToPos != 0 {
			t.Fatalf("unnecessary flips in %+v", gp)
		}
	}
}

func TestRepairTargetZeroEqualizesRates(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.7, 0.3, 0.5}, []float64{1, 1, 1})
	plan, err := Binary(cpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := plan.Apply(cpt)
	if err != nil {
		t.Fatal(err)
	}
	after := core.MustEpsilon(repaired).Epsilon
	if after > 1e-6 {
		t.Fatalf("target 0: repaired eps %v", after)
	}
	// All repaired rates equal.
	first := plan.Groups[0].NewRate
	for _, gp := range plan.Groups {
		if math.Abs(gp.NewRate-first) > 1e-9 {
			t.Fatalf("rates not equalized: %+v", plan.Groups)
		}
	}
}

// TestRepairMinimalMovementWeighted: with a heavy majority group, the
// optimal band should move the minority groups toward the majority, not
// the reverse.
func TestRepairMinimalMovementWeighted(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.6, 0.2}, []float64{100, 1})
	plan, err := Binary(cpt, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var major, minor GroupPlan
	for _, gp := range plan.Groups {
		if gp.Group == 0 {
			major = gp
		} else {
			minor = gp
		}
	}
	if math.Abs(major.NewRate-major.OldRate) > math.Abs(minor.NewRate-minor.OldRate) {
		t.Fatalf("majority moved more than minority: %+v vs %+v", major, minor)
	}
	if math.Abs(major.NewRate-0.6) > 0.05 {
		t.Fatalf("majority rate moved to %v, should stay near 0.6", major.NewRate)
	}
}

// TestRepairPropertyRandom: repaired ε never exceeds the target across
// random instances, and both outcome ratios are respected.
func TestRepairPropertyRandom(t *testing.T) {
	r := rng.New(301)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(6)
		rates := make([]float64, n)
		weights := make([]float64, n)
		for i := range rates {
			rates[i] = 0.02 + 0.96*r.Float64()
			weights[i] = 0.1 + r.Float64()
		}
		cpt := binaryCPT(t, rates, weights)
		target := 0.05 + 2*r.Float64()
		plan, err := Binary(cpt, target)
		if err != nil {
			t.Fatal(err)
		}
		repaired, err := plan.Apply(cpt)
		if err != nil {
			t.Fatal(err)
		}
		after := core.MustEpsilon(repaired)
		if after.Epsilon > target+1e-6 {
			t.Fatalf("trial %d: repaired eps %v > target %v (rates %v)", trial, after.Epsilon, target, rates)
		}
		// Movement never exceeds the max possible (rates span).
		if plan.Movement < 0 || plan.Movement > 1 {
			t.Fatalf("trial %d: movement %v", trial, plan.Movement)
		}
	}
}

// TestRepairMovementMinimalVsBruteForce: on small random instances the
// optimizer's movement matches an exhaustive dense-grid scan over the
// band's lower endpoint, so the grid-plus-ternary refinement is really
// finding the minimum, not a local kink.
func TestRepairMovementMinimalVsBruteForce(t *testing.T) {
	r := rng.New(909)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(3)
		rates := make([]float64, n)
		weights := make([]float64, n)
		var totalW float64
		for i := range rates {
			rates[i] = 0.02 + 0.96*r.Float64()
			weights[i] = 0.1 + r.Float64()
			totalW += weights[i]
		}
		target := 0.05 + r.Float64()
		cpt := binaryCPT(t, rates, weights)
		plan, err := Binary(cpt, target)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		const gridN = 20000
		for i := 1; i <= gridN; i++ {
			a := float64(i) / gridN
			b := bandUpper(a, target)
			var cost float64
			for j, rt := range rates {
				cost += weights[j] * math.Abs(clamp(rt, a, b)-rt)
			}
			if c := cost / totalW; c < best {
				best = c
			}
		}
		if plan.Movement > best+1e-4 {
			t.Fatalf("trial %d: movement %v above brute-force optimum %v (rates %v, target %v)",
				trial, plan.Movement, best, rates, target)
		}
	}
}

// TestRepairMovementMonotoneInTarget: looser targets never require more
// movement.
func TestRepairMovementMonotoneInTarget(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.8, 0.4, 0.1}, []float64{3, 2, 1})
	prev := math.Inf(1)
	for _, target := range []float64{0.1, 0.5, 1.0, 2.0} {
		plan, err := Binary(cpt, target)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Movement > prev+1e-9 {
			t.Fatalf("movement increased with looser target %v: %v > %v", target, plan.Movement, prev)
		}
		prev = plan.Movement
	}
}

func TestRepairFlipProbabilitiesRealizeRates(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.8, 0.1}, []float64{1, 1})
	plan, err := Binary(cpt, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.NewApplier(2, 303)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the post-processing stream and verify empirical rates.
	r := rng.New(303)
	for _, gp := range plan.Groups {
		const n = 200000
		groups := make([]int, n)
		decisions := make([]int, n)
		for i := range decisions {
			groups[i] = gp.Group
			if r.Float64() < gp.OldRate {
				decisions[i] = 1
			}
		}
		if _, err := app.ApplyBatch(0, groups, decisions); err != nil {
			t.Fatal(err)
		}
		var pos int
		for _, d := range decisions {
			pos += d
		}
		got := float64(pos) / n
		if math.Abs(got-gp.NewRate) > 0.005 {
			t.Errorf("group %d: simulated rate %v, plan rate %v", gp.Group, got, gp.NewRate)
		}
	}
}

// TestRepairDegenerateSupport: tables where repair has nothing to
// compare — every group empty, or all mass on a single group — must fail
// with the typed core.ErrDegenerateSupport, never produce NaN rates.
func TestRepairDegenerateSupport(t *testing.T) {
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b", "c"}})
	empty := core.MustCounts(space, []string{"no", "yes"})
	if _, err := Binary(empty.Empirical(), 0.5); !errors.Is(err, core.ErrDegenerateSupport) {
		t.Errorf("all-empty counts: got %v, want ErrDegenerateSupport", err)
	}
	single := core.MustCounts(space, []string{"no", "yes"})
	single.MustAdd(1, 0, 30)
	single.MustAdd(1, 1, 70)
	for _, f := range []func(*core.CPT, float64) (Plan, error){Binary, BinaryNoLevelingDown} {
		plan, err := f(single.Empirical(), 0.5)
		if !errors.Is(err, core.ErrDegenerateSupport) {
			t.Errorf("single-group counts: got %v, want ErrDegenerateSupport", err)
		}
		if len(plan.Groups) != 0 || plan.Lo != 0 || plan.Hi != 0 {
			t.Errorf("degenerate input leaked a partial plan: %+v", plan)
		}
	}
}

func TestRepairNoLevelingDown(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.7, 0.3, 0.5}, []float64{5, 1, 1})
	for _, target := range []float64{0.05, 0.2, 0.5} {
		plan, err := BinaryNoLevelingDown(cpt, target)
		if err != nil {
			t.Fatal(err)
		}
		for _, gp := range plan.Groups {
			if gp.NewRate < gp.OldRate-1e-12 {
				t.Errorf("target %v: group %d leveled down: %v -> %v", target, gp.Group, gp.OldRate, gp.NewRate)
			}
			if gp.FlipPosToNeg != 0 {
				t.Errorf("target %v: group %d has a pos->neg flip under the guard", target, gp.Group)
			}
		}
		if plan.LevelingDown != 0 {
			t.Errorf("target %v: LevelingDown = %v under the guard", target, plan.LevelingDown)
		}
		repaired, err := plan.Apply(cpt)
		if err != nil {
			t.Fatal(err)
		}
		if after := core.MustEpsilon(repaired).Epsilon; after > target+1e-9 {
			t.Errorf("target %v: guarded repair achieves eps %v", target, after)
		}
		// The guard costs at least as much movement as the free optimum.
		free, err := Binary(cpt, target)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Movement < free.Movement-1e-9 {
			t.Errorf("target %v: guarded movement %v below unconstrained %v", target, plan.Movement, free.Movement)
		}
	}
}

// TestRepairNoLevelingDownSaturatedGroup: a supported group at rate 1
// forces every group to 1 under the guard (the documented caveat).
func TestRepairNoLevelingDownSaturatedGroup(t *testing.T) {
	cpt := binaryCPT(t, []float64{1, 0.4}, []float64{1, 1})
	plan, err := BinaryNoLevelingDown(cpt, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, gp := range plan.Groups {
		if math.Abs(gp.NewRate-1) > 1e-12 {
			t.Errorf("group %d not raised to 1: %v", gp.Group, gp.NewRate)
		}
	}
	repaired, err := plan.Apply(cpt)
	if err != nil {
		t.Fatal(err)
	}
	if after := core.MustEpsilon(repaired).Epsilon; after > 0.3+1e-9 {
		t.Errorf("saturated repair eps %v", after)
	}
}

func TestRepairLevelingDownReported(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.8, 0.2}, []float64{1, 1})
	plan, err := Binary(cpt, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	var totalW float64
	for _, gp := range plan.Groups {
		if gp.OldRate > gp.NewRate {
			want += gp.Weight * (gp.OldRate - gp.NewRate)
		}
		totalW += gp.Weight
	}
	want /= totalW
	if math.Abs(plan.LevelingDown-want) > 1e-12 {
		t.Errorf("LevelingDown = %v, want %v", plan.LevelingDown, want)
	}
	if plan.LevelingDown <= 0 {
		t.Error("expected some leveling down from the unconstrained band at a tight target")
	}
}

func TestApplierMatchesPostProcess(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.8, 0.1, 0.5}, []float64{2, 1, 1})
	plan, err := Binary(cpt, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.NewApplier(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120000
	groups := make([]int, n)
	decisions := make([]int, n)
	r := rng.New(7)
	for i := range groups {
		groups[i] = r.Intn(3)
		if r.Float64() < plan.Groups[groups[i]].OldRate {
			decisions[i] = 1
		}
	}
	changed, err := app.ApplyBatch(0, groups, decisions)
	if err != nil {
		t.Fatal(err)
	}
	if changed <= 0 {
		t.Fatal("no decisions changed on an unfair stream")
	}
	// Empirical repaired rates match the plan's NewRate per group.
	pos := make([]float64, 3)
	tot := make([]float64, 3)
	for i := range groups {
		tot[groups[i]]++
		pos[groups[i]] += float64(decisions[i])
	}
	for _, gp := range plan.Groups {
		got := pos[gp.Group] / tot[gp.Group]
		if math.Abs(got-gp.NewRate) > 0.01 {
			t.Errorf("group %d: applied rate %v, plan rate %v", gp.Group, got, gp.NewRate)
		}
	}
}

// TestApplierBatchSplitInvariance: applying one big batch equals
// applying any partition of it with the corresponding tickets — the
// property that makes concurrent serving deterministic per decision.
func TestApplierBatchSplitInvariance(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.9, 0.2}, []float64{1, 1})
	plan, err := Binary(cpt, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.NewApplier(2, 99)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	groups := make([]int, n)
	base := make([]int, n)
	r := rng.New(11)
	for i := range groups {
		groups[i] = r.Intn(2)
		base[i] = r.Intn(2)
	}
	whole := append([]int(nil), base...)
	if _, err := app.ApplyBatch(1000, groups, whole); err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{1, 7, 512, n} {
		parts := append([]int(nil), base...)
		for off := 0; off < n; off += split {
			end := off + split
			if end > n {
				end = n
			}
			if _, err := app.ApplyBatch(1000+uint64(off), groups[off:end], parts[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range whole {
			if whole[i] != parts[i] {
				t.Fatalf("split %d: decision %d diverged (%d vs %d)", split, i, whole[i], parts[i])
			}
		}
	}
}

func TestApplierValidation(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.8, 0.1}, []float64{1, 1})
	plan, err := Binary(cpt, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.NewApplier(0, 1); err == nil {
		t.Error("zero group count accepted")
	}
	if _, err := plan.NewApplier(1, 1); err == nil {
		t.Error("plan group outside the space accepted")
	}
	if _, err := (Plan{}).NewApplier(4, 1); err == nil {
		t.Error("empty plan accepted")
	}
	app, err := plan.NewApplier(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name              string
		groups, decisions []int
	}{
		{"length mismatch", []int{0, 1}, []int{1}},
		{"group out of range", []int{-1}, []int{0}},
		{"group too large", []int{4}, []int{0}},
		{"uncovered group", []int{2}, []int{0}},
		{"non-binary decision", []int{0}, []int{2}},
	}
	for _, tc := range cases {
		before := append([]int(nil), tc.decisions...)
		if _, err := app.ApplyBatch(0, tc.groups, tc.decisions); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		for i := range before {
			if tc.decisions[i] != before[i] {
				t.Errorf("%s: rejected batch was partially applied", tc.name)
			}
		}
	}
	if changed, err := app.ApplyBatch(0, nil, nil); err != nil || changed != 0 {
		t.Errorf("empty batch: changed=%d err=%v", changed, err)
	}
}

func TestRepairValidation(t *testing.T) {
	cpt := binaryCPT(t, []float64{0.5, 0.6}, []float64{1, 1})
	if _, err := Binary(cpt, -1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := Binary(cpt, math.NaN()); err == nil {
		t.Error("NaN target accepted")
	}
	if _, err := Binary(cpt, math.Inf(1)); err == nil {
		t.Error("infinite target accepted")
	}
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	three := core.MustCPT(space, []string{"x", "y", "z"})
	three.MustSetRow(0, 1, 0.2, 0.3, 0.5)
	three.MustSetRow(1, 1, 0.2, 0.3, 0.5)
	if _, err := Binary(three, 1); err == nil {
		t.Error("three-outcome CPT accepted")
	}
	plan, err := Binary(cpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Apply(three); err == nil {
		t.Error("Apply on three-outcome CPT accepted")
	}
}
