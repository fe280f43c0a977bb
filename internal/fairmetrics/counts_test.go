package fairmetrics

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

func countsMetrics() []core.Metric {
	return []core.Metric{
		WorstGap{},
		WorstRatio{},
		AlphaIntersectional{Alpha: 0.5},
		SubgroupParity{},
		DemographicParity{},
	}
}

// naiveRates extracts P(y|g) and weights for supported groups with
// straight loops — the reference the optimized Evals are checked
// against.
func naiveRates(c *core.CPT) (groups []int, weights []float64, rates [][]float64) {
	for g := 0; g < c.Space().Size(); g++ {
		if c.Weight(g) <= 0 {
			continue
		}
		groups = append(groups, g)
		weights = append(weights, c.Weight(g))
		row := make([]float64, c.NumOutcomes())
		for y := range row {
			row[y] = c.Prob(g, y)
		}
		rates = append(rates, row)
	}
	return groups, weights, rates
}

func naiveValue(t *testing.T, m core.Metric, c *core.CPT) float64 {
	t.Helper()
	_, weights, rates := naiveRates(c)
	minMax := func(y int) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, row := range rates {
			lo = math.Min(lo, row[y])
			hi = math.Max(hi, row[y])
		}
		return lo, hi
	}
	switch m.(type) {
	case WorstGap:
		var worst float64
		for y := 0; y < c.NumOutcomes(); y++ {
			lo, hi := minMax(y)
			worst = math.Max(worst, hi-lo)
		}
		return worst
	case WorstRatio:
		lo, hi := minMax(1)
		if hi == 0 {
			return 1
		}
		return lo / hi
	case AlphaIntersectional:
		lo, hi := minMax(1)
		return 0.5*(1-lo) + 0.5*(hi-lo)
	case SubgroupParity:
		var total, overall float64
		for i, w := range weights {
			total += w
			overall += w * rates[i][1]
		}
		overall /= total
		var worst float64
		for i, w := range weights {
			worst = math.Max(worst, (w/total)*math.Abs(overall-rates[i][1]))
		}
		return worst
	case DemographicParity:
		lo, hi := minMax(1)
		return hi - lo
	}
	t.Fatalf("no reference for %T", m)
	return 0
}

// TestCountsMetricsAgainstNaiveReference: on randomized tables — with
// empty groups, zero cells and both estimators — every metric's Eval
// agrees with an independent straight-loop reference, stays within the
// metric's documented range, and never leaks Inf/NaN.
func TestCountsMetricsAgainstNaiveReference(t *testing.T) {
	space, err := core.NewSpace(
		core.Attr{Name: "a", Values: []string{"x", "y"}},
		core.Attr{Name: "b", Values: []string{"p", "q", "r"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		counts, err := core.NewCounts(space, []string{"neg", "pos"})
		if err != nil {
			t.Fatal(err)
		}
		supported := 0
		for g := 0; g < space.Size(); g++ {
			if r.Float64() < 0.25 && supported >= 2 {
				continue // leave some groups empty
			}
			supported++
			for y := 0; y < 2; y++ {
				counts.MustAdd(g, y, float64(r.Intn(40))) // zero cells are common
			}
		}
		cpt := counts.Empirical()
		if trial%2 == 1 {
			cpt, err = counts.Smoothed(0.5, false)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := cpt.Validate(); err != nil {
			continue // a degenerate draw; covered by the test below
		}
		for _, m := range countsMetrics() {
			res, err := m.Eval(cpt)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, m.Key(), err)
			}
			want := naiveValue(t, m, cpt)
			if math.Abs(res.Value-want) > 1e-12 {
				t.Fatalf("trial %d: %s = %v, reference = %v", trial, m.Key(), res.Value, want)
			}
			if math.IsNaN(res.Value) || math.IsInf(res.Value, 0) {
				t.Fatalf("trial %d: %s leaked non-finite value %v", trial, m.Key(), res.Value)
			}
			if !res.Finite {
				t.Fatalf("trial %d: %s reported Finite=false", trial, m.Key())
			}
			if res.Value < 0 || res.Value > 1 {
				t.Fatalf("trial %d: %s = %v outside [0, 1]", trial, m.Key(), res.Value)
			}
			// Witnesses name supported groups.
			for _, g := range []int{res.Witness.GroupHi, res.Witness.GroupLo} {
				if g < 0 || g >= space.Size() || cpt.Weight(g) <= 0 {
					t.Fatalf("trial %d: %s witnessed unsupported group %d", trial, m.Key(), g)
				}
			}
			// Eval is a pure function of the table: a second call
			// reproduces value and witness exactly.
			again, err := m.Eval(cpt)
			if err != nil || again != res {
				t.Fatalf("trial %d: %s not deterministic: %+v vs %+v (%v)", trial, m.Key(), res, again, err)
			}
		}
	}
}

// TestCountsMetricsDegenerate: a table with fewer than two supported
// groups is not auditable, and every metric reports it with the shared
// sentinel instead of fabricating a value.
func TestCountsMetricsDegenerate(t *testing.T) {
	space, err := core.NewSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := core.NewCounts(space, []string{"neg", "pos"})
	if err != nil {
		t.Fatal(err)
	}
	counts.MustAdd(0, 1, 10) // only one populated group
	for _, m := range countsMetrics() {
		if _, err := m.Eval(counts.Empirical()); !errors.Is(err, core.ErrDegenerateSupport) {
			t.Errorf("%s on a one-group table = %v, want ErrDegenerateSupport", m.Key(), err)
		}
	}
}

// TestCountsMetricsApplicability: the binary-only family rejects wider
// vocabularies at Applicable time; WorstGap accepts them; the α
// parameter is range-checked.
func TestCountsMetricsApplicability(t *testing.T) {
	space, err := core.NewSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	tri := []string{"x", "y", "z"}
	for _, m := range countsMetrics() {
		err := m.Applicable(space, tri)
		if _, ok := m.(WorstGap); ok {
			if err != nil {
				t.Errorf("worst_gap rejected a three-outcome vocabulary: %v", err)
			}
		} else if err == nil {
			t.Errorf("%s accepted a three-outcome vocabulary", m.Key())
		}
		if err := m.Applicable(nil, []string{"neg", "pos"}); err == nil {
			t.Errorf("%s accepted a nil space", m.Key())
		}
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if err := (AlphaIntersectional{Alpha: bad}).Applicable(space, []string{"neg", "pos"}); err == nil {
			t.Errorf("alpha_if accepted alpha = %v", bad)
		}
	}
}

// TestCountsMetricTieBreaks: ties in the rate scan resolve toward the
// lowest group index, matching core.Epsilon's witness convention.
func TestCountsMetricTieBreaks(t *testing.T) {
	space, err := core.NewSpace(core.Attr{Name: "g", Values: []string{"a", "b", "c", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := core.NewCounts(space, []string{"neg", "pos"})
	if err != nil {
		t.Fatal(err)
	}
	// Groups 0 and 1 share the high rate; groups 2 and 3 share the low.
	for _, g := range []int{0, 1} {
		counts.MustAdd(g, 0, 2)
		counts.MustAdd(g, 1, 8)
	}
	for _, g := range []int{2, 3} {
		counts.MustAdd(g, 0, 8)
		counts.MustAdd(g, 1, 2)
	}
	for _, m := range []core.Metric{WorstRatio{}, AlphaIntersectional{Alpha: 0.5}, DemographicParity{}} {
		res, err := m.Eval(counts.Empirical())
		if err != nil {
			t.Fatal(err)
		}
		if res.Witness.GroupHi != 0 || res.Witness.GroupLo != 2 {
			t.Errorf("%s witness = (hi %d, lo %d), want min-index ties (hi 0, lo 2)",
				m.Key(), res.Witness.GroupHi, res.Witness.GroupLo)
		}
	}
}

// extremaOf builds the core.Extrema view of a CPT by scanning it, the
// reference for the streaming engine's cached view.
func extremaOf(c *core.CPT) *core.Extrema {
	e := &core.Extrema{}
	for g := 0; g < c.Space().Size(); g++ {
		if c.Supported(g) {
			e.Supported++
		}
	}
	for y := 0; y < c.NumOutcomes(); y++ {
		hiG, loG, hi, lo := c.OutcomeExtrema(y)
		e.Hi, e.Lo = append(e.Hi, hi), append(e.Lo, lo)
		e.HiG, e.LoG = append(e.HiG, int32(hiG)), append(e.LoG, int32(loG))
	}
	return e
}

// TestExtremaFormMatchesEval: for every metric with an extrema form,
// EvalExtrema on a table's extrema view equals Eval on the table —
// identical value bits, witness and Finite flag, and the same
// degenerate-support error — over random binary and three-outcome
// tables with empty groups, zero cells, one or no supported group, and
// both estimators. Subgroup parity reads group masses and has no
// extrema form.
func TestExtremaFormMatchesEval(t *testing.T) {
	space, err := core.NewSpace(
		core.Attr{Name: "a", Values: []string{"x", "y"}},
		core.Attr{Name: "b", Values: []string{"p", "q", "r"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	metrics := append([]core.Metric{core.DFEpsilon}, countsMetrics()...)
	for _, m := range metrics {
		_, ok := m.(core.ExtremaMetric)
		if want := m.Key() != "subgroup"; ok != want {
			t.Fatalf("%s: implements core.ExtremaMetric = %v, want %v", m.Key(), ok, want)
		}
	}
	r := rng.New(43)
	degenerate := 0
	for trial := 0; trial < 400; trial++ {
		outcomes := []string{"neg", "pos"}
		if trial%3 == 2 {
			outcomes = []string{"low", "mid", "high"}
		}
		counts, err := core.NewCounts(space, outcomes)
		if err != nil {
			t.Fatal(err)
		}
		fill := r.Float64() // some trials leave all but a group or two empty
		for g := 0; g < space.Size(); g++ {
			if r.Float64() > fill {
				continue
			}
			for y := range outcomes {
				counts.MustAdd(g, y, float64(r.Intn(6))) // zero cells are common
			}
		}
		cpt := counts.Empirical()
		if trial%2 == 1 {
			if cpt, err = counts.Smoothed(0.5, false); err != nil {
				t.Fatal(err)
			}
		}
		e := extremaOf(cpt)
		for _, m := range metrics {
			em, ok := m.(core.ExtremaMetric)
			if !ok || m.Applicable(space, outcomes) != nil {
				continue
			}
			want, werr := m.Eval(cpt)
			got, gerr := em.EvalExtrema(e)
			if (werr == nil) != (gerr == nil) || errors.Is(werr, core.ErrDegenerateSupport) != errors.Is(gerr, core.ErrDegenerateSupport) {
				t.Fatalf("trial %d: %s: Eval error %v, EvalExtrema error %v", trial, m.Key(), werr, gerr)
			}
			if werr != nil {
				degenerate++
				continue
			}
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.Witness != want.Witness || got.Finite != want.Finite {
				t.Fatalf("trial %d: %s: EvalExtrema %+v, Eval %+v", trial, m.Key(), got, want)
			}
		}
	}
	if degenerate == 0 {
		t.Error("no degenerate table was drawn")
	}
}
