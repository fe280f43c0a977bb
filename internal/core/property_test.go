package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomCPT builds a random CPT over nAttrs binary-or-ternary attributes
// and nOutcomes outcomes, with strictly positive probabilities and
// weights so ε is finite.
func randomCPT(r *rng.RNG, nAttrs, nOutcomes int) *CPT {
	attrs := make([]Attr, nAttrs)
	letters := []string{"a", "b", "c", "d", "e"}
	for i := range attrs {
		card := 2 + r.Intn(2)
		vals := make([]string, card)
		for j := range vals {
			vals[j] = letters[j]
		}
		attrs[i] = Attr{Name: string(rune('p' + i)), Values: vals}
	}
	space := MustSpace(attrs...)
	outcomes := make([]string, nOutcomes)
	for i := range outcomes {
		outcomes[i] = string(rune('A' + i))
	}
	c := MustCPT(space, outcomes)
	alpha := make([]float64, nOutcomes)
	for i := range alpha {
		alpha[i] = 0.5 + 2*r.Float64()
	}
	probs := make([]float64, nOutcomes)
	for g := 0; g < space.Size(); g++ {
		r.Dirichlet(probs, alpha)
		// Bound probabilities away from zero to keep ε finite.
		var sum float64
		for i := range probs {
			probs[i] = 0.01 + probs[i]
			sum += probs[i]
		}
		for i := range probs {
			probs[i] /= sum
		}
		c.MustSetRow(g, 0.05+r.Float64(), probs...)
	}
	return c
}

// TestTheorem32Property: for random CPTs, the ε of every nonempty subset
// of the protected attributes is at most 2× the full intersectional ε
// (Theorem 3.2; Theorem 3.1 and Corollaries 3.1/3.2 are special cases).
func TestTheorem32Property(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 300; trial++ {
		nAttrs := 2 + r.Intn(2)    // 2 or 3 attributes
		nOutcomes := 2 + r.Intn(2) // 2 or 3 outcomes
		c := randomCPT(r, nAttrs, nOutcomes)
		full := MustEpsilon(c)
		subs, err := EpsilonSubsetsCPT(c)
		if err != nil {
			t.Fatal(err)
		}
		bound := SubsetBound(full)
		for _, sub := range subs {
			if len(sub.Attrs) == nAttrs {
				if math.Abs(sub.Result.Epsilon-full.Epsilon) > 1e-9 {
					t.Fatalf("trial %d: full-subset epsilon %v != direct %v", trial, sub.Result.Epsilon, full.Epsilon)
				}
				continue
			}
			if sub.Result.Epsilon > bound+1e-9 {
				t.Fatalf("trial %d: Theorem 3.2 violated for subset %v: eps=%v > 2*%v",
					trial, sub.Attrs, sub.Result.Epsilon, full.Epsilon)
			}
		}
	}
}

// TestTheorem32CountsProperty repeats the theorem check along the counts
// path: aggregating empirical counts over subsets also respects 2ε.
func TestTheorem32CountsProperty(t *testing.T) {
	r := rng.New(103)
	space := MustSpace(
		Attr{Name: "x", Values: []string{"0", "1"}},
		Attr{Name: "y", Values: []string{"0", "1", "2"}},
	)
	for trial := 0; trial < 200; trial++ {
		c := MustCounts(space, []string{"no", "yes"})
		for g := 0; g < space.Size(); g++ {
			// At least one observation of each outcome keeps ε finite.
			c.MustAdd(g, 0, float64(1+r.Intn(50)))
			c.MustAdd(g, 1, float64(1+r.Intn(50)))
		}
		full := MustEpsilon(c.Empirical())
		subs, err := EpsilonSubsetsCounts(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if sub.Result.Epsilon > 2*full.Epsilon+1e-9 {
				t.Fatalf("trial %d: counts-path Theorem 3.2 violated for %v: %v > 2*%v",
					trial, sub.Attrs, sub.Result.Epsilon, full.Epsilon)
			}
		}
	}
}

// TestEq4Property: the posterior-odds privacy guarantee holds for random
// CPTs, random priors, every outcome and every group pair, with the
// measured ε.
func TestEq4Property(t *testing.T) {
	r := rng.New(107)
	for trial := 0; trial < 200; trial++ {
		c := randomCPT(r, 2, 2)
		eps := MustEpsilon(c).Epsilon
		prior := make([]float64, c.Space().Size())
		alpha := make([]float64, len(prior))
		for i := range alpha {
			alpha[i] = 0.5 + r.Float64()
		}
		r.Dirichlet(prior, alpha)
		for i := range prior {
			prior[i] = 0.01 + prior[i] // keep strictly positive
		}
		if err := CheckPosteriorOddsBound(c, prior, eps); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestEq5Property: for random CPTs and random non-negative utilities, the
// expected-utility disparity is at most e^ε.
func TestEq5Property(t *testing.T) {
	r := rng.New(109)
	for trial := 0; trial < 300; trial++ {
		c := randomCPT(r, 2, 3)
		eps := MustEpsilon(c).Epsilon
		u := make([]float64, c.NumOutcomes())
		for i := range u {
			u[i] = r.Float64() * 10
		}
		d, err := UtilityDisparity(c, u)
		if err != nil {
			t.Fatal(err)
		}
		if d > math.Exp(eps)+1e-9 {
			t.Fatalf("trial %d: disparity %v exceeds e^eps %v", trial, d, math.Exp(eps))
		}
	}
}

// TestEpsilonSymmetryProperty: ε is invariant under relabeling the two
// compared directions — computing with rows swapped gives the same value.
func TestEpsilonSymmetryProperty(t *testing.T) {
	r := rng.New(113)
	for trial := 0; trial < 200; trial++ {
		c := randomCPT(r, 1, 2)
		eps1 := MustEpsilon(c).Epsilon
		// Swap the first two supported rows.
		g := c.SupportedGroups()
		if len(g) < 2 {
			continue
		}
		d := c.Clone()
		r0, r1 := append([]float64(nil), c.row(g[0])...), append([]float64(nil), c.row(g[1])...)
		w0, w1 := c.Weight(g[0]), c.Weight(g[1])
		d.MustSetRow(g[0], w1, r1...)
		d.MustSetRow(g[1], w0, r0...)
		eps2 := MustEpsilon(d).Epsilon
		if math.Abs(eps1-eps2) > 1e-12 {
			t.Fatalf("trial %d: epsilon changed under row swap: %v vs %v", trial, eps1, eps2)
		}
	}
}

// TestSmoothingConvergesToEmpirical: as counts grow with fixed rates, the
// smoothed estimator approaches the empirical one (the prior washes out).
func TestSmoothingConvergesToEmpirical(t *testing.T) {
	space := MustSpace(Attr{Name: "g", Values: []string{"a", "b"}})
	rates := []float64{0.3, 0.6}
	prev := math.Inf(1)
	for _, n := range []float64{10, 100, 1000, 100000} {
		c := MustCounts(space, []string{"no", "yes"})
		for g, rate := range rates {
			c.MustAdd(g, 1, rate*n)
			c.MustAdd(g, 0, (1-rate)*n)
		}
		emp := MustEpsilon(c.Empirical()).Epsilon
		sm, err := c.Smoothed(1, false)
		if err != nil {
			t.Fatal(err)
		}
		smoothed := MustEpsilon(sm).Epsilon
		gap := math.Abs(smoothed - emp)
		if gap > prev+1e-12 {
			t.Fatalf("smoothing gap not shrinking: n=%v gap=%v prev=%v", n, gap, prev)
		}
		prev = gap
	}
	if prev > 1e-4 {
		t.Fatalf("smoothed estimator did not converge: final gap %v", prev)
	}
}

// TestMarginalizeWeightConservation: total weight is conserved by
// marginalization for random CPTs.
func TestMarginalizeWeightConservation(t *testing.T) {
	r := rng.New(127)
	for trial := 0; trial < 100; trial++ {
		c := randomCPT(r, 3, 2)
		var totalFull float64
		for g := 0; g < c.Space().Size(); g++ {
			totalFull += c.Weight(g)
		}
		names := c.Space().SubsetNames()
		m, err := c.Marginalize(names[0]...)
		if err != nil {
			t.Fatal(err)
		}
		var totalSub float64
		for g := 0; g < m.Space().Size(); g++ {
			totalSub += m.Weight(g)
		}
		if math.Abs(totalFull-totalSub) > 1e-9 {
			t.Fatalf("trial %d: weight not conserved: %v vs %v", trial, totalFull, totalSub)
		}
	}
}

// TestMarginalizeRowsNormalized: marginalized rows remain probability
// vectors (quick.Check over generated rate tables).
func TestMarginalizeRowsNormalized(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := randomCPT(r, 2, 3)
		m, err := c.Marginalize(c.Space().Attrs()[0].Name)
		if err != nil {
			return false
		}
		for _, g := range m.SupportedGroups() {
			var sum float64
			for y := 0; y < m.NumOutcomes(); y++ {
				sum += m.Prob(g, y)
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEpsilonScaleInvariance: scaling all weights by a constant does not
// change ε (weights only matter for marginalization proportions).
func TestEpsilonScaleInvariance(t *testing.T) {
	r := rng.New(131)
	for trial := 0; trial < 100; trial++ {
		c := randomCPT(r, 2, 2)
		eps1 := MustEpsilon(c).Epsilon
		scaled := c.Clone()
		for g := 0; g < c.Space().Size(); g++ {
			scaled.MustSetRow(g, c.Weight(g)*7.5, c.row(g)...)
		}
		eps2 := MustEpsilon(scaled).Epsilon
		if math.Abs(eps1-eps2) > 1e-12 {
			t.Fatalf("epsilon changed under weight scaling: %v vs %v", eps1, eps2)
		}
		// Marginal epsilons are also invariant.
		m1, err := c.Marginalize(c.Space().Attrs()[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := scaled.Marginalize(c.Space().Attrs()[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(MustEpsilon(m1).Epsilon-MustEpsilon(m2).Epsilon) > 1e-12 {
			t.Fatal("marginal epsilon changed under weight scaling")
		}
	}
}

// TestSpaceRoundTripProperty: Index/Decode round-trips on randomly-shaped
// spaces (quick.Check over dimension vectors).
func TestSpaceRoundTripProperty(t *testing.T) {
	f := func(dims []uint8, probe uint16) bool {
		if len(dims) == 0 {
			return true
		}
		if len(dims) > 5 {
			dims = dims[:5]
		}
		attrs := make([]Attr, len(dims))
		size := 1
		for i, d := range dims {
			card := 1 + int(d%4)
			vals := make([]string, card)
			for j := range vals {
				vals[j] = fmt.Sprintf("v%d", j)
			}
			attrs[i] = Attr{Name: fmt.Sprintf("a%d", i), Values: vals}
			size *= card
		}
		space, err := NewSpace(attrs...)
		if err != nil {
			return false
		}
		g := int(probe) % size
		decoded := space.Decode(g)
		back, err := space.Index(decoded...)
		return err == nil && back == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCountsMarginalTotalProperty: marginalizing counts preserves both
// the grand total and each outcome's total.
func TestCountsMarginalTotalProperty(t *testing.T) {
	r := rng.New(601)
	space := MustSpace(
		Attr{Name: "x", Values: []string{"0", "1", "2"}},
		Attr{Name: "y", Values: []string{"0", "1"}},
	)
	for trial := 0; trial < 100; trial++ {
		c := MustCounts(space, []string{"a", "b", "c"})
		for g := 0; g < space.Size(); g++ {
			for y := 0; y < 3; y++ {
				c.MustAdd(g, y, float64(r.Intn(30)))
			}
		}
		for _, names := range space.SubsetNames() {
			m, err := c.Marginalize(names...)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(m.Total()-c.Total()) > 1e-9 {
				t.Fatalf("trial %d subset %v: total changed", trial, names)
			}
			for y := 0; y < 3; y++ {
				var mTotal, cTotal float64
				for g := 0; g < m.Space().Size(); g++ {
					mTotal += m.N(g, y)
				}
				for g := 0; g < c.Space().Size(); g++ {
					cTotal += c.N(g, y)
				}
				if math.Abs(mTotal-cTotal) > 1e-9 {
					t.Fatalf("trial %d subset %v: outcome %d total changed", trial, names, y)
				}
			}
		}
	}
}

// TestEpsilonMonotoneUnderRateSpread: widening the gap between two
// groups' rates never decreases ε (binary outcomes, two groups).
func TestEpsilonMonotoneUnderRateSpread(t *testing.T) {
	space := MustSpace(Attr{Name: "g", Values: []string{"a", "b"}})
	prev := -1.0
	for _, gap := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4} {
		c := MustCPT(space, []string{"no", "yes"})
		c.MustSetRow(0, 1, 0.5-gap/2, 0.5+gap/2)
		c.MustSetRow(1, 1, 0.5+gap/2, 0.5-gap/2)
		eps := MustEpsilon(c).Epsilon
		if eps < prev-1e-12 {
			t.Fatalf("epsilon decreased as gap widened: %v after %v", eps, prev)
		}
		prev = eps
	}
}
