// Package bayes implements the Bayesian estimation options the paper
// sketches for differential fairness: training a probabilistic model on
// the data and letting Θ be a MAP estimate, a posterior predictive
// distribution, or a set of posterior samples / a credible region
// (Section 3 footnote 2 and the future-work agenda of Section 8).
//
// The model is the conjugate Dirichlet-multinomial over outcomes given
// each intersectional group: with a symmetric Dirichlet(α) prior the
// posterior over P(·|s) is Dirichlet(N_{·,s} + α), whose posterior
// predictive mean is exactly the smoothed estimator of Eq. 7.
//
// Posterior draws run on the same parallel engine as the bootstrap
// (internal/par): sample i always uses RNG substream (seed, i) and lands
// in slot i, so summaries are bit-identical regardless of GOMAXPROCS, and
// Credible reuses one pooled CPT buffer per worker instead of
// materializing every sampled θ.
package bayes

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// DirichletMultinomial is the conjugate model of outcome counts per
// group.
type DirichletMultinomial struct {
	counts *core.Counts
	alpha  float64
}

// NewDirichletMultinomial wraps counts with a symmetric Dirichlet prior
// of per-outcome pseudo-count alpha > 0.
func NewDirichletMultinomial(counts *core.Counts, alpha float64) (*DirichletMultinomial, error) {
	if counts == nil {
		return nil, fmt.Errorf("bayes: nil counts")
	}
	if !(alpha > 0) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("bayes: alpha must be positive and finite, got %v", alpha)
	}
	return &DirichletMultinomial{counts: counts, alpha: alpha}, nil
}

// PosteriorPredictive returns the posterior-predictive CPT, which equals
// the Eq. 7 smoothed estimator. Groups with no observations receive the
// prior predictive (uniform) when includeEmpty is true.
func (m *DirichletMultinomial) PosteriorPredictive(includeEmpty bool) (*core.CPT, error) {
	return m.counts.Smoothed(m.alpha, includeEmpty)
}

// posteriorParams precomputes, once per call, the per-group posterior
// Dirichlet concentrations N_{·,s} + α and group totals shared (read-only)
// by every parallel sample.
func (m *DirichletMultinomial) posteriorParams() (alphaPost []float64, groupTotals []float64) {
	space := m.counts.Space()
	k := m.counts.NumOutcomes()
	alphaPost = make([]float64, space.Size()*k)
	groupTotals = make([]float64, space.Size())
	for g := 0; g < space.Size(); g++ {
		groupTotals[g] = m.counts.GroupTotal(g)
		for y := 0; y < k; y++ {
			alphaPost[g*k+y] = m.counts.N(g, y) + m.alpha
		}
	}
	return alphaPost, groupTotals
}

// sampleInto fills cpt with one posterior draw using the given generator:
// for each supported group, P(·|s) ~ Dirichlet(N_{·,s} + α).
func sampleInto(cpt *core.CPT, r *rng.RNG, probs []float64, alphaPost, groupTotals []float64) error {
	k := len(probs)
	for g := range groupTotals {
		ns := groupTotals[g]
		if ns <= 0 {
			continue
		}
		r.Dirichlet(probs, alphaPost[g*k:(g+1)*k])
		if err := cpt.SetRow(g, ns, probs...); err != nil {
			return err
		}
	}
	return nil
}

// EpsilonPosterior summarizes the posterior distribution of one metric
// (ε by default): point estimates and a central credible interval.
type EpsilonPosterior struct {
	// Mean is the posterior mean over the samples.
	Mean float64
	// Median is the posterior median.
	Median float64
	// Lo and Hi bound the central credible interval at the requested
	// level.
	Lo, Hi float64
	// Level is the credible level, e.g. 0.95.
	Level float64
	// Samples holds the sorted per-sample values.
	Samples []float64
	// Sup is the most-unfair value over the samples under the metric's
	// orientation; for ε it is the supremum, ε of the sampled Θ as a
	// framework (Definition 3.1 with Θ = the credible set).
	Sup float64
}

// Credible draws n posterior samples and returns, for each metric in
// order, the posterior summary at the given credible level (in (0,1)).
// Each sampled θ is drawn once and every metric evaluates it, so all
// summaries are over exactly the same posterior draws. It never
// materializes the sampled CPTs: each worker reuses one pooled CPT
// buffer across all samples it evaluates, so the steady-state loop is
// allocation-free. Results are deterministic for a
// fixed r regardless of both GOMAXPROCS and workers (0 = one per CPU).
// ctx must be non-nil: when it is canceled mid-run the workers stop
// claiming samples and the call returns ctx.Err() promptly instead of a
// summary.
func (m *DirichletMultinomial) Credible(ctx context.Context, ms []core.Metric, n int, level float64, r *rng.RNG, workers int) ([]EpsilonPosterior, error) {
	if !(level > 0 && level < 1) {
		return nil, fmt.Errorf("bayes: credible level %v outside (0,1)", level)
	}
	if n <= 0 {
		return nil, fmt.Errorf("bayes: need n > 0 samples, got %d", n)
	}
	space := m.counts.Space()
	outcomes := m.counts.Outcomes()
	k := len(outcomes)
	alphaPost, groupTotals := m.posteriorParams()
	base := r.Uint64()

	type scratch struct {
		rng   *rng.RNG
		probs []float64
		cpt   *core.CPT
	}
	vals := make([][]float64, len(ms))
	for j := range vals {
		vals[j] = make([]float64, n)
	}
	err := par.DoCtx(ctx, workers, n, func() *scratch {
		return &scratch{
			rng:   rng.New(0),
			probs: make([]float64, k),
			cpt:   core.MustCPT(space, outcomes),
		}
	}, func(s *scratch, i int) error {
		s.rng.SeedStream(base, uint64(i))
		if err := sampleInto(s.cpt, s.rng, s.probs, alphaPost, groupTotals); err != nil {
			return err
		}
		for j, metric := range ms {
			res, err := metric.Eval(s.cpt)
			if err != nil {
				return fmt.Errorf("bayes: metric %s: %w", metric.Key(), err)
			}
			vals[j][i] = res.Value
		}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}

	out := make([]EpsilonPosterior, len(ms))
	for j, metric := range ms {
		v := vals[j]
		sum := 0.0
		sup := v[0]
		for _, e := range v {
			sum += e
			if core.MetricWorse(metric, e, sup) {
				sup = e
			}
		}
		sort.Float64s(v)
		out[j] = EpsilonPosterior{
			Mean:    sum / float64(len(v)),
			Median:  quantileSorted(v, 0.5),
			Lo:      quantileSorted(v, (1-level)/2),
			Hi:      quantileSorted(v, 1-(1-level)/2),
			Level:   level,
			Samples: v,
			Sup:     sup,
		}
	}
	return out, nil
}

// quantileSorted returns the q-quantile of sorted values by linear
// interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
