package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bayes"
	"repro/internal/census"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/mechanism"
	"repro/internal/rng"
)

// RandomizedResponseResult calibrates the ε scale (§3.3): the classical
// randomized-response procedure is ln 3 ≈ 1.0986-differentially private,
// and the same value falls out of the DF machinery.
type RandomizedResponseResult struct {
	Rows []struct {
		P        float64
		Measured float64
		Analytic float64
	}
}

// RandomizedResponse sweeps the randomization probability.
func RandomizedResponse() (RandomizedResponseResult, error) {
	var out RandomizedResponseResult
	for _, p := range []float64{0.25, 0.5, 0.75, 1.0} {
		rr := mechanism.RandomizedResponse{P: p}
		cpt, err := rr.CPT()
		if err != nil {
			return out, err
		}
		res, err := core.Epsilon(cpt)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, struct {
			P        float64
			Measured float64
			Analytic float64
		}{p, res.Epsilon, rr.Epsilon()})
	}
	return out, nil
}

// String renders the calibration table.
func (r RandomizedResponseResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		note := ""
		if row.P == 0.5 {
			note = "classical procedure; paper: ln 3 = 1.0986"
		}
		rows = append(rows, []string{f2(row.P), f3(row.Measured), f3(row.Analytic), note})
	}
	return renderTable(
		"Randomized response calibration (paper section 3.3)",
		[]string{"P(randomize)", "measured eps", "analytic eps", ""},
		rows)
}

// SmoothingSweepResult is the Eq. 6 vs Eq. 7 ablation: how the Dirichlet
// prior strength changes measured ε on the census intersections.
type SmoothingSweepResult struct {
	Rows []struct {
		Alpha   float64 // 0 means the unsmoothed Eq. 6 estimator
		Epsilon float64
		Finite  bool
	}
}

// SmoothingSweep measures full-intersection ε under increasing smoothing.
func SmoothingSweep(cfg census.Config) (SmoothingSweepResult, error) {
	train, _, err := census.Generate(cfg)
	if err != nil {
		return SmoothingSweepResult{}, err
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		return SmoothingSweepResult{}, err
	}
	var out SmoothingSweepResult
	for _, alpha := range []float64{0, 0.1, 0.5, 1, 5, 20} {
		cpt, err := counts.Estimate(alpha)
		if err != nil {
			return out, err
		}
		res, err := core.Epsilon(cpt)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, struct {
			Alpha   float64
			Epsilon float64
			Finite  bool
		}{alpha, res.Epsilon, res.Finite})
	}
	return out, nil
}

// String renders the sweep.
func (r SmoothingSweepResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		eps := f3(row.Epsilon)
		if !row.Finite {
			eps = "inf"
		}
		label := fmt.Sprintf("%g", row.Alpha)
		if row.Alpha == 0 {
			label = "0 (Eq. 6)"
		}
		rows = append(rows, []string{label, eps})
	}
	return renderTable(
		"Ablation: Dirichlet smoothing strength vs full-intersection eps (Eq. 7)",
		[]string{"alpha", "eps"},
		rows)
}

// CredibleResult is the Bayesian-Θ ablation: the posterior distribution
// of ε for the census intersections under the Dirichlet-multinomial
// model, realizing the "credible region" option of the paper.
type CredibleResult struct {
	Posterior bayes.EpsilonPosterior
	PointEps  float64
}

// CredibleInterval samples the ε posterior. ctx must be non-nil and
// cancels the posterior sampling cooperatively.
func CredibleInterval(ctx context.Context, cfg census.Config, samples int, seed uint64) (CredibleResult, error) {
	train, _, err := census.Generate(cfg)
	if err != nil {
		return CredibleResult{}, err
	}
	counts, err := census.IncomeCounts(census.Space(), train)
	if err != nil {
		return CredibleResult{}, err
	}
	model, err := bayes.NewDirichletMultinomial(counts, 1)
	if err != nil {
		return CredibleResult{}, err
	}
	post, err := model.Credible(ctx, []core.Metric{core.DFEpsilon}, samples, 0.95, rng.New(seed), 0)
	if err != nil {
		return CredibleResult{}, err
	}
	pp, err := model.PosteriorPredictive(false)
	if err != nil {
		return CredibleResult{}, err
	}
	point, err := core.Epsilon(pp)
	if err != nil {
		return CredibleResult{}, err
	}
	return CredibleResult{Posterior: post[0], PointEps: point.Epsilon}, nil
}

// String renders the posterior summary.
func (r CredibleResult) String() string {
	return renderTable(
		"Ablation: Bayesian posterior of eps (Dirichlet-multinomial, census intersections)",
		[]string{"quantity", "value"},
		[][]string{
			{"posterior mean", f3(r.Posterior.Mean)},
			{"posterior median", f3(r.Posterior.Median)},
			{fmt.Sprintf("%.0f%% credible interval", 100*r.Posterior.Level),
				fmt.Sprintf("[%.3f, %.3f]", r.Posterior.Lo, r.Posterior.Hi)},
			{"sup over sampled thetas (Def 3.1)", f3(r.Posterior.Sup)},
			{"posterior predictive point eps (Eq. 7)", f3(r.PointEps)},
		})
}

// RegularizerRow is one λ of the fairness-accuracy sweep.
type RegularizerRow struct {
	Lambda    float64
	Epsilon   float64 // smoothed DF of hard predictions on test split
	SoftEps   float64 // surrogate ε of mean group probabilities
	ErrorRate float64
}

// RegularizerResult is the future-work ablation: training the DF
// surrogate regularizer at increasing strength trades accuracy for
// fairness (paper Section 8, following Berk et al.).
type RegularizerResult struct {
	Rows []RegularizerRow
}

// RegularizerSweep trains the fair classifier at several λ.
func RegularizerSweep(cfg census.Config, logistic classify.LogisticConfig, lambdas []float64) (RegularizerResult, error) {
	train, test, err := census.Generate(cfg)
	if err != nil {
		return RegularizerResult{}, err
	}
	space := census.Space()
	dsTrain, moments, err := census.Dataset(train, nil, nil)
	if err != nil {
		return RegularizerResult{}, err
	}
	dsTest, _, err := census.Dataset(test, nil, moments)
	if err != nil {
		return RegularizerResult{}, err
	}
	groupsTrain := census.Groups(train)
	groupsTest := census.Groups(test)
	var out RegularizerResult
	for _, lambda := range lambdas {
		model, err := classify.TrainFairLogistic(dsTrain, classify.FairLogisticConfig{
			LogisticConfig: logistic,
			Lambda:         lambda,
			Groups:         groupsTrain,
			NumGroups:      space.Size(),
		})
		if err != nil {
			return out, err
		}
		preds := model.PredictAll(dsTest.X)
		errRate, err := classify.ErrorRate(dsTest.Y, preds)
		if err != nil {
			return out, err
		}
		predCounts, err := census.PredictionCounts(space, test, preds)
		if err != nil {
			return out, err
		}
		sm, err := predCounts.Smoothed(1, false)
		if err != nil {
			return out, err
		}
		eps, err := core.Epsilon(sm)
		if err != nil {
			return out, err
		}
		probs := model.PredictProbs(dsTest.X)
		rates, sizes, err := classify.GroupPositiveRates(probs, groupsTest, space.Size())
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, RegularizerRow{
			Lambda:    lambda,
			Epsilon:   eps.Epsilon,
			SoftEps:   classify.SoftEpsilon(rates, sizes),
			ErrorRate: errRate,
		})
	}
	return out, nil
}

// String renders the tradeoff curve.
func (r RegularizerResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", row.Lambda), f3(row.Epsilon), f3(row.SoftEps), pct(row.ErrorRate),
		})
	}
	return renderTable(
		"Extension: DF-regularized logistic regression (paper future work)",
		[]string{"lambda", "eps (hard preds)", "soft eps", "test error"},
		rows)
}

// LaplaceRow is one noise scale of the noise-route ablation.
type LaplaceRow struct {
	Scale   float64
	Epsilon float64
	// Utility is P(yes | group 2), the qualified group's approval rate —
	// the useful signal the noise destroys.
	Utility float64
}

// LaplaceResult is the §3.2 ablation: adding Laplace noise to the Fig. 2
// threshold does achieve DF, but only by destroying the mechanism's
// information, which is why the paper recommends altering the mechanism
// instead.
type LaplaceResult struct {
	Rows []LaplaceRow
}

// LaplaceSweep evaluates the noisy threshold at several scales.
func LaplaceSweep() (LaplaceResult, error) {
	space := core.MustSpace(core.Attr{Name: "group", Values: []string{"1", "2"}})
	scores, err := mechanism.NewGaussianScores([]float64{10, 12}, []float64{1, 1})
	if err != nil {
		return LaplaceResult{}, err
	}
	weights := []float64{0.5, 0.5}
	var out LaplaceResult
	for _, b := range []float64{0, 0.5, 1, 2, 4, 8} {
		th := mechanism.Threshold{T: 10.5}
		if b > 0 {
			th.Noise = mechanism.LaplaceNoise{B: b}
		}
		cpt, err := th.CPT(space, weights, scores)
		if err != nil {
			return out, err
		}
		res, err := core.Epsilon(cpt)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, LaplaceRow{Scale: b, Epsilon: res.Epsilon, Utility: cpt.Prob(1, 1)})
	}
	return out, nil
}

// String renders the sweep.
func (r LaplaceResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		label := fmt.Sprintf("%g", row.Scale)
		if row.Scale == 0 {
			label = "0 (no noise)"
		}
		rows = append(rows, []string{label, f3(row.Epsilon), f3(row.Utility)})
	}
	return renderTable(
		"Ablation: Laplace-noise route to DF on the Fig. 2 mechanism (paper discourages this, section 3.2)",
		[]string{"noise scale b", "eps", "P(hire | qualified group)"},
		rows)
}

// MetricComparisonResult sets DF side by side with the related-work
// definitions of Section 7.1, all evaluated on the same census
// classifier.
type MetricComparisonResult struct {
	Epsilon float64
	Report  fairmetrics.Report
}

// MetricComparison trains the no-protected-features classifier and
// evaluates every metric.
func MetricComparison(cfg census.Config, logistic classify.LogisticConfig) (MetricComparisonResult, error) {
	train, test, err := census.Generate(cfg)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	space := census.Space()
	dsTrain, moments, err := census.Dataset(train, nil, nil)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	dsTest, _, err := census.Dataset(test, nil, moments)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	model, err := classify.TrainLogistic(dsTrain, logistic)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	preds := model.PredictAll(dsTest.X)
	probs := model.PredictProbs(dsTest.X)
	groups := census.Groups(test)
	predCounts, err := census.PredictionCounts(space, test, preds)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	sm, err := predCounts.Smoothed(1, false)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	eps, err := core.Epsilon(sm)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	report, err := fairmetrics.Evaluate(groups, space.Size(), dsTest.Y, preds, probs, 10)
	if err != nil {
		return MetricComparisonResult{}, err
	}
	return MetricComparisonResult{Epsilon: eps.Epsilon, Report: report}, nil
}

// String renders the comparison.
func (r MetricComparisonResult) String() string {
	calibration := "not measured (no scores)"
	if r.Report.GroupCalibrationGap != nil {
		calibration = f3(float64(*r.Report.GroupCalibrationGap))
	}
	return interpretEpsilon(r.Epsilon) + "\n" + renderTable(
		"Comparison: DF vs related fairness definitions (census classifier, no protected features)",
		[]string{"definition", "value"},
		[][]string{
			{"differential fairness eps (this paper)", f3(r.Epsilon)},
			{"demographic parity gap (Dwork et al.)", f3(float64(r.Report.DemographicParityGap))},
			{"disparate impact ratio (80% rule)", f3(float64(r.Report.DisparateImpactRatio))},
			{"equalized odds gap (Hardt et al.)", f3(float64(r.Report.EqualizedOddsGap))},
			{"equal opportunity gap (Hardt et al.)", f3(float64(r.Report.EqualOpportunityGap))},
			{"subgroup fairness violation (Kearns et al.)", f3(float64(r.Report.SubgroupFairnessViolation))},
			{"group calibration gap (multicalibration)", calibration},
		})
}

// interpretEpsilon renders the §3.3 reading for reports.
func interpretEpsilon(eps float64) string {
	i := core.Interpret(eps)
	var notes []string
	if i.HighFairnessRegime {
		notes = append(notes, "high-fairness regime (eps < 1)")
	} else {
		notes = append(notes, "outside the high-fairness regime")
	}
	if i.StrongerThanRandomizedResponse {
		notes = append(notes, "stronger than randomized response")
	}
	return fmt.Sprintf("eps=%.3f: utility disparity up to %.2fx; %s",
		eps, i.MaxUtilityFactor, strings.Join(notes, ", "))
}
