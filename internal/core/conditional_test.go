package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func labeledFixture(t *testing.T) *LabeledCounts {
	t.Helper()
	s := binarySpace(t)
	c, err := NewLabeledCounts(s, []string{"neg", "pos"}, []string{"pred0", "pred1"})
	if err != nil {
		t.Fatal(err)
	}
	// Group 0: TPR 0.8 (40/50), FPR 0.2 (10/50).
	addLab(t, c, 0, 1, 1, 40)
	addLab(t, c, 0, 1, 0, 10)
	addLab(t, c, 0, 0, 1, 10)
	addLab(t, c, 0, 0, 0, 40)
	// Group 1: TPR 0.4 (20/50), FPR 0.1 (5/50).
	addLab(t, c, 1, 1, 1, 20)
	addLab(t, c, 1, 1, 0, 30)
	addLab(t, c, 1, 0, 1, 5)
	addLab(t, c, 1, 0, 0, 45)
	return c
}

func addLab(t *testing.T, c *LabeledCounts, g, l, y, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Observe(g, l, y); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewLabeledCountsValidation(t *testing.T) {
	s := binarySpace(t)
	if _, err := NewLabeledCounts(nil, []string{"a", "b"}, []string{"x", "y"}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := NewLabeledCounts(s, []string{"a"}, []string{"x", "y"}); err == nil {
		t.Error("single label accepted")
	}
	if _, err := NewLabeledCounts(s, []string{"a", "b"}, []string{"x"}); err == nil {
		t.Error("single outcome accepted")
	}
}

func TestObserveValidation(t *testing.T) {
	s := binarySpace(t)
	c, _ := NewLabeledCounts(s, []string{"a", "b"}, []string{"x", "y"})
	if err := c.Observe(5, 0, 0); err == nil {
		t.Error("bad group accepted")
	}
	if err := c.Observe(0, 5, 0); err == nil {
		t.Error("bad label accepted")
	}
	if err := c.Observe(0, 0, 5); err == nil {
		t.Error("bad outcome accepted")
	}
}

// TestEqualizedOddsEpsilonHandComputed checks per-stratum ε against hand
// arithmetic: positives stratum has TPR ratio 0.8/0.4 = 2 and FNR ratio
// 0.6/0.2 = 3; negatives stratum has FPR ratio 0.2/0.1 = 2 and TNR
// ratio 0.9/0.8.
func TestEqualizedOddsEpsilonHandComputed(t *testing.T) {
	c := labeledFixture(t)
	res, err := EqualizedOddsEpsilon(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLabel) != 2 {
		t.Fatalf("per-label count %d", len(res.PerLabel))
	}
	wantPos := math.Log(3) // FNR 0.6 vs 0.2 dominates TPR 2x
	wantNeg := math.Log(2) // FPR 0.2 vs 0.1
	byLabel := map[string]float64{}
	for _, s := range res.PerLabel {
		byLabel[s.Label] = s.Result.Epsilon
	}
	if math.Abs(byLabel["pos"]-wantPos) > 1e-12 {
		t.Errorf("pos stratum eps = %v, want ln 3", byLabel["pos"])
	}
	if math.Abs(byLabel["neg"]-wantNeg) > 1e-12 {
		t.Errorf("neg stratum eps = %v, want ln 2", byLabel["neg"])
	}
	if math.Abs(res.Epsilon-wantPos) > 1e-12 {
		t.Errorf("overall eq-odds eps = %v, want ln 3", res.Epsilon)
	}
	if !res.Finite {
		t.Error("finite fixture flagged infinite")
	}
}

// TestEqualizedOddsDiffersFromMarginalDF: a classifier can be marginally
// DF-fair while violating the equalized-odds analogue — base-rate
// differences hide error-rate disparities (the §7.1 contrast).
func TestEqualizedOddsDiffersFromMarginalDF(t *testing.T) {
	s := binarySpace(t)
	c, _ := NewLabeledCounts(s, []string{"neg", "pos"}, []string{"pred0", "pred1"})
	// Group 0: 80 positives with TPR 0.5, 20 negatives with FPR 0.
	addLab(t, c, 0, 1, 1, 40)
	addLab(t, c, 0, 1, 0, 40)
	addLab(t, c, 0, 0, 0, 20)
	// Group 1: 20 positives with TPR 1.0, 80 negatives with FPR 0.25.
	addLab(t, c, 1, 1, 1, 20)
	addLab(t, c, 1, 0, 1, 20)
	addLab(t, c, 1, 0, 0, 60)
	// Marginal positive-prediction rates are equal: 40/100 vs 40/100.
	marginal := MustEpsilon(c.Marginal().Empirical())
	if marginal.Epsilon > 1e-12 {
		t.Fatalf("marginal DF should be 0, got %v", marginal.Epsilon)
	}
	// Yet the error-rate analogue is far from fair.
	eq, err := EqualizedOddsEpsilon(c, 1) // smoothing keeps the zero-FPR cell finite
	if err != nil {
		t.Fatal(err)
	}
	if eq.Epsilon < 0.5 {
		t.Fatalf("equalized-odds eps = %v, expected a large violation", eq.Epsilon)
	}
}

func TestStratumAndMarginalConsistency(t *testing.T) {
	c := labeledFixture(t)
	pos, err := c.Stratum(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := pos.N(0, 1); got != 40 {
		t.Errorf("stratum N(0, pred1) = %v", got)
	}
	if got := pos.Total(); got != 100 {
		t.Errorf("positives stratum total = %v", got)
	}
	m := c.Marginal()
	if got := m.Total(); got != 200 {
		t.Errorf("marginal total %v, want the fixture's 200", got)
	}
	if got := m.N(0, 1); got != 50 { // 40 TP + 10 FP
		t.Errorf("marginal N(0, pred1) = %v", got)
	}
	if _, err := c.Stratum(9); err == nil {
		t.Error("bad stratum accepted")
	}
}

func TestEqualOpportunityEpsilon(t *testing.T) {
	c := labeledFixture(t)
	res, err := EqualOpportunityEpsilon(c, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Epsilon-math.Log(3)) > 1e-12 {
		t.Errorf("equal-opportunity eps = %v, want ln 3", res.Epsilon)
	}
	if _, err := EqualOpportunityEpsilon(c, 7, 0); err == nil {
		t.Error("bad label accepted")
	}
}

func TestEqualizedOddsSkipsEmptyStrata(t *testing.T) {
	s := binarySpace(t)
	c, _ := NewLabeledCounts(s, []string{"neg", "pos"}, []string{"pred0", "pred1"})
	// Only the positive stratum is populated for both groups.
	addLab(t, c, 0, 1, 1, 10)
	addLab(t, c, 0, 1, 0, 10)
	addLab(t, c, 1, 1, 1, 5)
	addLab(t, c, 1, 1, 0, 15)
	res, err := EqualizedOddsEpsilon(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLabel) != 1 {
		t.Fatalf("expected 1 usable stratum, got %d", len(res.PerLabel))
	}
}

func TestEqualizedOddsErrorsWithNoUsableStratum(t *testing.T) {
	s := binarySpace(t)
	c, _ := NewLabeledCounts(s, []string{"neg", "pos"}, []string{"pred0", "pred1"})
	addLab(t, c, 0, 1, 1, 10) // only one group populated anywhere
	if _, err := EqualizedOddsEpsilon(c, 0); err == nil {
		t.Error("no-usable-stratum table accepted")
	}
}

func TestFromLabeledObservations(t *testing.T) {
	s := binarySpace(t)
	c, err := FromLabeledObservations(s, []string{"neg", "pos"}, []string{"p0", "p1"},
		[]int{0, 0, 1}, []int{1, 0, 1}, []int{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.n[0][1][1] != 1 || c.n[1][1][0] != 1 {
		t.Fatal("counts wrong")
	}
	if _, err := FromLabeledObservations(s, []string{"a", "b"}, []string{"x", "y"},
		[]int{0}, []int{0, 1}, []int{0}); err == nil {
		t.Error("mismatched slices accepted")
	}
}

// TestPerStratumSubsetGuarantee: each stratum is an ordinary DF instance,
// so Theorem 3.2 applies within strata too.
func TestPerStratumSubsetGuarantee(t *testing.T) {
	r := rng.New(211)
	space := MustSpace(
		Attr{Name: "x", Values: []string{"0", "1"}},
		Attr{Name: "y", Values: []string{"0", "1"}},
	)
	for trial := 0; trial < 50; trial++ {
		c, _ := NewLabeledCounts(space, []string{"neg", "pos"}, []string{"p0", "p1"})
		for g := 0; g < space.Size(); g++ {
			for l := 0; l < 2; l++ {
				for y := 0; y < 2; y++ {
					for k := 0; k < 1+r.Intn(40); k++ {
						if err := c.Observe(g, l, y); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		for l := 0; l < 2; l++ {
			stratum, err := c.Stratum(l)
			if err != nil {
				t.Fatal(err)
			}
			full := MustEpsilon(stratum.Empirical())
			subs, err := EpsilonSubsetsCounts(stratum, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				if sub.Result.Epsilon > 2*full.Epsilon+1e-9 {
					t.Fatalf("trial %d stratum %d: subset %v violates 2eps", trial, l, sub.Attrs)
				}
			}
		}
	}
}
