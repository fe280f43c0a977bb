// Package mechanism models the decision mechanisms M(x) of the paper:
// deterministic score thresholds over per-group score distributions (the
// Figure 2 worked example), thresholds randomized with Laplace noise
// (the "noise route" to differential fairness the paper discusses and
// advises against in §3.2), and the classical randomized-
// response mechanism used to calibrate ε in §3.3.
//
// Every mechanism reduces to a core.CPT over a protected-attribute space,
// from which ε and all bounds are computed.
package mechanism

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
)

// GaussianScores models each group's score as a Gaussian, the setting of
// the paper's Figure 2.
type GaussianScores struct {
	dists []dist.Normal
}

// NewGaussianScores builds the model from per-group means and standard
// deviations.
func NewGaussianScores(mu, sigma []float64) (*GaussianScores, error) {
	if len(mu) != len(sigma) || len(mu) == 0 {
		return nil, fmt.Errorf("mechanism: mu and sigma must have equal nonzero length")
	}
	g := &GaussianScores{dists: make([]dist.Normal, len(mu))}
	for i := range mu {
		d, err := dist.NewNormal(mu[i], sigma[i])
		if err != nil {
			return nil, fmt.Errorf("mechanism: group %d: %w", i, err)
		}
		g.dists[i] = d
	}
	return g, nil
}

// OutcomeAbove returns the Gaussian tail mass above t.
func (g *GaussianScores) OutcomeAbove(group int, t float64) float64 {
	return g.dists[group].SurvivalAbove(t)
}

// NumGroups returns the number of groups in the model.
func (g *GaussianScores) NumGroups() int { return len(g.dists) }

// Threshold is the deterministic mechanism M(x) = [x >= t]: approve when
// the score clears the threshold. Although M itself is deterministic, the
// randomness of the data distribution makes the outcome probabilities
// non-trivial, which is why differential fairness does not require a
// randomized mechanism (§3.2).
type Threshold struct {
	T float64
	// Noise, when non-nil, is added to the score before thresholding,
	// yielding a randomized mechanism. This implements the Laplace "noise
	// route" to fairness that the paper describes and discourages.
	Noise NoiseModel
}

// NoiseModel is an additive, group-independent noise distribution.
// Implementations validate their parameters in Dist, once, before any
// evaluation runs; Threshold.CPT rejects unusable noise there instead
// of faulting mid-quadrature. Tail queries go through the returned
// distribution's SurvivalAbove.
type NoiseModel interface {
	// Dist returns the validated noise distribution, or an error when the
	// parameters are unusable (e.g. a non-positive scale).
	Dist() (dist.Dist, error)
	// Name describes the noise for reports.
	Name() string
}

// LaplaceNoise is zero-mean Laplace noise with scale B.
type LaplaceNoise struct{ B float64 }

// Dist returns the validated Laplace(0, B) distribution.
func (l LaplaceNoise) Dist() (dist.Dist, error) {
	d, err := dist.NewLaplace(0, l.B)
	if err != nil {
		return nil, fmt.Errorf("mechanism: %w", err)
	}
	return d, nil
}

// Name describes the noise.
func (l LaplaceNoise) Name() string { return fmt.Sprintf("Laplace(b=%g)", l.B) }

// CPT evaluates the threshold mechanism against a score model, producing
// the outcome CPT over the given space with the given group weights
// (P(s)). Outcomes are labeled "no", "yes".
//
// Without noise, P(yes|s) is the score tail mass above T. With noise n,
// P(yes|s) = P(x + n >= T) computed by numerically integrating the score
// distribution against the noise tail. The integration uses the model's
// quantile-free tail directly on a fixed grid over ±12 noise scales,
// which is accurate to ~1e-6 for the smooth models used here.
func (t Threshold) CPT(space *core.Space, weights []float64, scores *GaussianScores) (*core.CPT, error) {
	if space.Size() != scores.NumGroups() {
		return nil, fmt.Errorf("mechanism: space has %d groups, score model has %d", space.Size(), scores.NumGroups())
	}
	if len(weights) != space.Size() {
		return nil, fmt.Errorf("mechanism: %d weights for %d groups", len(weights), space.Size())
	}
	cpt, err := core.NewCPT(space, []string{"no", "yes"})
	if err != nil {
		return nil, err
	}
	// Construct and validate the noise distribution once, up front, so an
	// unusable scale surfaces as an error here rather than a fault deep in
	// the per-group quadrature. The quadrature buffers are likewise shared
	// across groups.
	var noise dist.Dist
	var xs, pdf []float64
	if t.Noise != nil {
		noise, err = t.Noise.Dist()
		if err != nil {
			return nil, fmt.Errorf("mechanism: %s: %w", t.Noise.Name(), err)
		}
		xs = make([]float64, noisySteps)
		pdf = make([]float64, noisySteps)
	}
	for g := 0; g < space.Size(); g++ {
		var pYes float64
		if noise == nil {
			pYes = scores.OutcomeAbove(g, t.T)
		} else {
			pYes = t.noisyYes(scores, g, noise, xs, pdf)
		}
		if err := cpt.SetRow(g, weights[g], 1-pYes, pYes); err != nil {
			return nil, err
		}
	}
	return cpt, nil
}

// noisySteps is the midpoint-quadrature resolution of noisyYes.
const noisySteps = 4000

// noisyYes computes P(x + n >= T | group) = E_x[P(n >= T - x)] by
// midpoint quadrature over the Gaussian score density, evaluated through
// the batched density path into the caller-shared buffers xs and pdf
// (each of length noisySteps).
func (t Threshold) noisyYes(scores *GaussianScores, group int, noise dist.Dist, xs, pdf []float64) float64 {
	d := scores.dists[group]
	const span = 10.0 // integrate over mu ± span*sigma
	lo := d.Mu - span*d.Sigma
	h := 2 * span * d.Sigma / noisySteps
	for i := range xs {
		xs[i] = lo + (float64(i)+0.5)*h
	}
	dist.BatchPDF(d, xs, pdf)
	var acc float64
	for i, x := range xs {
		acc += pdf[i] * noise.SurvivalAbove(t.T-x) * h
	}
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// Fig2CPT returns the exact CPT of the paper's Figure 2 worked example:
// two equiprobable groups with scores N(10,1) and N(12,1) and hiring
// threshold 10.5. Its ε is 2.337.
func Fig2CPT() *core.CPT {
	space := core.MustSpace(core.Attr{Name: "group", Values: []string{"1", "2"}})
	scores, err := NewGaussianScores([]float64{10, 12}, []float64{1, 1})
	if err != nil {
		panic(err)
	}
	cpt, err := Threshold{T: 10.5}.CPT(space, []float64{0.5, 0.5}, scores)
	if err != nil {
		panic(err)
	}
	return cpt
}

// RandomizedResponse is the classical survey mechanism of §3.3: answer
// truthfully with probability 1-P, otherwise answer with an independent
// fair coin. P is the probability of entering the randomization branch
// (0.5 for the classical procedure).
type RandomizedResponse struct {
	P float64
}

// CPT returns the mechanism's CPT over the binary secret with uniform
// weights. Outcome labels are "answer_no", "answer_yes".
func (rr RandomizedResponse) CPT() (*core.CPT, error) {
	if !(rr.P >= 0 && rr.P <= 1) {
		return nil, fmt.Errorf("mechanism: randomized response P=%v outside [0,1]", rr.P)
	}
	space := core.MustSpace(core.Attr{Name: "truth", Values: []string{"no", "yes"}})
	cpt, err := core.NewCPT(space, []string{"answer_no", "answer_yes"})
	if err != nil {
		return nil, err
	}
	// P(answer yes | truth yes) = (1-P) + P/2; P(answer yes | truth no) = P/2.
	pYesGivenYes := (1 - rr.P) + rr.P/2
	pYesGivenNo := rr.P / 2
	if err := cpt.SetRow(0, 0.5, 1-pYesGivenNo, pYesGivenNo); err != nil {
		return nil, err
	}
	if err := cpt.SetRow(1, 0.5, 1-pYesGivenYes, pYesGivenYes); err != nil {
		return nil, err
	}
	return cpt, nil
}

// Epsilon returns the analytic ε of the randomized-response mechanism,
// ln((2-P)/P) for P in (0, 1]; the classical P=0.5 gives ln 3.
func (rr RandomizedResponse) Epsilon() float64 {
	if rr.P <= 0 {
		return math.Inf(1) // deterministic truthful answering reveals the secret
	}
	return math.Log((2 - rr.P) / rr.P)
}
