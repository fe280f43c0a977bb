package bayes

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

// epsilonCredible is Credible over ε alone.
func epsilonCredible(m *DirichletMultinomial, ctx context.Context, n int, level float64, r *rng.RNG, workers int) (EpsilonPosterior, error) {
	ps, err := m.Credible(ctx, []core.Metric{core.DFEpsilon}, n, level, r, workers)
	if err != nil {
		return EpsilonPosterior{}, err
	}
	return ps[0], nil
}

func demoCounts(t *testing.T) *core.Counts {
	t.Helper()
	s := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	c := core.MustCounts(s, []string{"no", "yes"})
	c.MustAdd(0, 0, 30)
	c.MustAdd(0, 1, 70)
	c.MustAdd(1, 0, 60)
	c.MustAdd(1, 1, 40)
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := NewDirichletMultinomial(nil, 1); err == nil {
		t.Error("nil counts accepted")
	}
	c := demoCounts(t)
	for _, alpha := range []float64{0, -1, math.Inf(1)} {
		if _, err := NewDirichletMultinomial(c, alpha); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
}

// TestPosteriorPredictiveIsEq7: the posterior predictive of the conjugate
// model equals the paper's smoothed estimator.
func TestPosteriorPredictiveIsEq7(t *testing.T) {
	c := demoCounts(t)
	m, err := NewDirichletMultinomial(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := m.PosteriorPredictive(false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Smoothed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		for y := 0; y < 2; y++ {
			if math.Abs(pp.Prob(g, y)-want.Prob(g, y)) > 1e-15 {
				t.Fatalf("posterior predictive != Eq.7 at (%d,%d)", g, y)
			}
		}
	}
}

// posteriorDraws materializes the θ set Credible evaluates for seed r:
// sample i is drawn from RNG substream (seed, i).
func posteriorDraws(t *testing.T, m *DirichletMultinomial, n int, r *rng.RNG) []*core.CPT {
	t.Helper()
	alphaPost, groupTotals := m.posteriorParams()
	base := r.Uint64()
	probs := make([]float64, len(m.counts.Outcomes()))
	s := rng.New(0)
	out := make([]*core.CPT, n)
	for i := range out {
		cpt := core.MustCPT(m.counts.Space(), m.counts.Outcomes())
		s.SeedStream(base, uint64(i))
		if err := sampleInto(cpt, s, probs, alphaPost, groupTotals); err != nil {
			t.Fatal(err)
		}
		out[i] = cpt
	}
	return out
}

func TestSamplePosteriorRowsAreDistributions(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 0.5)
	for _, s := range posteriorDraws(t, m, 50, rng.New(7)) {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid sampled CPT: %v", err)
		}
	}
}

// TestPosteriorConcentratesWithData: with 100x the data at the same
// rates, the posterior spread of ε shrinks and the interval tightens
// around the empirical value.
func TestPosteriorConcentratesWithData(t *testing.T) {
	s := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	build := func(scale float64) *core.Counts {
		c := core.MustCounts(s, []string{"no", "yes"})
		c.MustAdd(0, 0, 30*scale)
		c.MustAdd(0, 1, 70*scale)
		c.MustAdd(1, 0, 60*scale)
		c.MustAdd(1, 1, 40*scale)
		return c
	}
	small, _ := NewDirichletMultinomial(build(1), 1)
	big, _ := NewDirichletMultinomial(build(100), 1)
	ps, err := epsilonCredible(small, context.Background(), 400, 0.9, rng.New(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := epsilonCredible(big, context.Background(), 400, 0.9, rng.New(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	if widthS, widthB := ps.Hi-ps.Lo, pb.Hi-pb.Lo; widthB >= widthS {
		t.Fatalf("credible interval did not shrink with data: %v vs %v", widthB, widthS)
	}
	// The large-data posterior should centre near the empirical epsilon.
	emp := core.MustEpsilon(build(100).Empirical()).Epsilon
	if math.Abs(pb.Median-emp) > 0.05 {
		t.Fatalf("posterior median %v far from empirical %v", pb.Median, emp)
	}
}

func TestEpsilonCredibleInvariants(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 1)
	p, err := epsilonCredible(m, context.Background(), 300, 0.95, rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(p.Lo <= p.Median && p.Median <= p.Hi) {
		t.Fatalf("quantiles out of order: %v %v %v", p.Lo, p.Median, p.Hi)
	}
	if p.Sup < p.Hi {
		t.Fatalf("sup %v below upper quantile %v", p.Sup, p.Hi)
	}
	if len(p.Samples) != 300 {
		t.Fatalf("kept %d samples", len(p.Samples))
	}
	for i := 1; i < len(p.Samples); i++ {
		if p.Samples[i] < p.Samples[i-1] {
			t.Fatal("samples not sorted")
		}
	}
	if _, err := epsilonCredible(m, context.Background(), 10, 1.5, rng.New(1), 0); err == nil {
		t.Error("bad level accepted")
	}
}

func TestQuantileSorted(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if got := quantileSorted(vals, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := quantileSorted(vals, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := quantileSorted(vals, 0.5); got != 3 {
		t.Errorf("q0.5 = %v", got)
	}
	if got := quantileSorted(vals, 0.25); got != 2 {
		t.Errorf("q0.25 = %v", got)
	}
	if got := quantileSorted([]float64{7}, 0.9); got != 7 {
		t.Errorf("singleton = %v", got)
	}
	if got := quantileSorted(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty = %v", got)
	}
}

// TestPosteriorDeterministicAcrossWorkerCounts: the parallel engine must
// produce bit-identical posterior summaries no matter the pool size.
func TestPosteriorDeterministicAcrossWorkerCounts(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 1)
	var results []EpsilonPosterior
	for _, workers := range []int{1, 2, 8} {
		p, err := epsilonCredible(m, context.Background(), 200, 0.9, rng.New(31), workers)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, p)
	}
	for i := 1; i < len(results); i++ {
		a, b := results[0], results[i]
		if a.Mean != b.Mean || a.Median != b.Median || a.Lo != b.Lo || a.Hi != b.Hi || a.Sup != b.Sup {
			t.Fatalf("posterior summary differs across worker counts: %+v vs %+v", a, b)
		}
		for k := range a.Samples {
			if a.Samples[k] != b.Samples[k] {
				t.Fatalf("sample %d differs across worker counts", k)
			}
		}
	}
}

// TestEpsilonCredibleMatchesSamplePosterior: Credible's pooled-
// buffer path must evaluate exactly the θ set posteriorDraws
// materializes for the same seed.
func TestEpsilonCredibleMatchesSamplePosterior(t *testing.T) {
	c := demoCounts(t)
	m, _ := NewDirichletMultinomial(c, 1)
	const n = 100
	want := make([]float64, 0, n)
	for _, theta := range posteriorDraws(t, m, n, rng.New(55)) {
		res, err := core.Epsilon(theta)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Epsilon)
	}
	sort.Float64s(want)
	p, err := epsilonCredible(m, context.Background(), n, 0.9, rng.New(55), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != p.Samples[i] {
			t.Fatalf("sample %d: credible path %v, materialized path %v", i, p.Samples[i], want[i])
		}
	}
}

func TestEpsilonCredibleCtxCanceled(t *testing.T) {
	m, err := NewDirichletMultinomial(demoCounts(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := epsilonCredible(m, ctx, 1000, 0.95, rng.New(1), 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	a, err := epsilonCredible(m, context.Background(), 50, 0.9, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epsilonCredible(m, context.Background(), 50, 0.9, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != b.Lo || a.Hi != b.Hi || a.Mean != b.Mean {
		t.Errorf("ctx variant diverged")
	}
}

// TestCredibleMultiMetricMatchesSingle: every metric of one Credible call
// summarizes exactly the draws a one-metric call with the same seed
// makes, bit for bit — including Sup under a lower-is-worse metric.
func TestCredibleMultiMetricMatchesSingle(t *testing.T) {
	m, err := NewDirichletMultinomial(demoCounts(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := []core.Metric{core.DFEpsilon, fairmetrics.WorstRatio{}, fairmetrics.WorstGap{}}
	all, err := m.Credible(context.Background(), ms, 120, 0.9, rng.New(77), 3)
	if err != nil {
		t.Fatal(err)
	}
	for j, metric := range ms {
		one, err := m.Credible(context.Background(), []core.Metric{metric}, 120, 0.9, rng.New(77), 1)
		if err != nil {
			t.Fatal(err)
		}
		got, want := all[j], one[0]
		if got.Mean != want.Mean || got.Median != want.Median || got.Lo != want.Lo ||
			got.Hi != want.Hi || got.Sup != want.Sup {
			t.Errorf("%s: multi-metric summary %+v differs from one-metric %+v", metric.Key(), got, want)
		}
		for i := range want.Samples {
			if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
				t.Fatalf("%s: sample %d = %v, want %v", metric.Key(), i, got.Samples[i], want.Samples[i])
			}
		}
	}
	if all[1].Sup != all[1].Samples[0] {
		t.Errorf("worst_ratio Sup = %v, want the smallest sample %v", all[1].Sup, all[1].Samples[0])
	}
}
