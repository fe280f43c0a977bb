package mechanism

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func TestFig2CPTMatchesPaper(t *testing.T) {
	cpt := Fig2CPT()
	// Paper Figure 2 probability table.
	if got := cpt.Prob(0, 1); math.Abs(got-0.3085) > 5e-5 {
		t.Errorf("P(yes|1) = %v, paper says 0.3085", got)
	}
	if got := cpt.Prob(1, 1); math.Abs(got-0.9332) > 5e-5 {
		t.Errorf("P(yes|2) = %v, paper says 0.9332", got)
	}
	if got := cpt.Prob(0, 0); math.Abs(got-0.6915) > 5e-5 {
		t.Errorf("P(no|1) = %v, paper says 0.6915", got)
	}
	if got := cpt.Prob(1, 0); math.Abs(got-0.0668) > 5e-5 {
		t.Errorf("P(no|2) = %v, paper says 0.0668", got)
	}
	res := core.MustEpsilon(cpt)
	if math.Abs(res.Epsilon-2.337) > 5e-4 {
		t.Errorf("epsilon = %v, paper says 2.337", res.Epsilon)
	}
}

func TestNewGaussianScoresValidation(t *testing.T) {
	if _, err := NewGaussianScores(nil, nil); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := NewGaussianScores([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewGaussianScores([]float64{1}, []float64{0}); err == nil {
		t.Error("zero sigma accepted")
	}
}

func TestThresholdCPTValidation(t *testing.T) {
	scores, _ := NewGaussianScores([]float64{0, 1}, []float64{1, 1})
	space3 := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b", "c"}})
	if _, err := (Threshold{T: 0}).CPT(space3, []float64{1, 1, 1}, scores); err == nil {
		t.Error("group-count mismatch accepted")
	}
	space2 := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	if _, err := (Threshold{T: 0}).CPT(space2, []float64{1}, scores); err == nil {
		t.Error("weight-count mismatch accepted")
	}
}

func TestThresholdMonotoneInT(t *testing.T) {
	scores, _ := NewGaussianScores([]float64{0}, []float64{1})
	prev := 1.0
	for _, thr := range []float64{-2, -1, 0, 1, 2} {
		p := scores.OutcomeAbove(0, thr)
		if p > prev {
			t.Fatalf("P(yes) increased as threshold rose: %v after %v", p, prev)
		}
		prev = p
	}
}

// TestLaplaceNoiseReducesEpsilon: adding noise to the threshold blurs the
// decision, shrinking ε toward 0 as the scale grows — the "noise route"
// to fairness whose utility cost the paper criticizes.
func TestLaplaceNoiseReducesEpsilon(t *testing.T) {
	space := core.MustSpace(core.Attr{Name: "group", Values: []string{"1", "2"}})
	scores, _ := NewGaussianScores([]float64{10, 12}, []float64{1, 1})
	weights := []float64{0.5, 0.5}
	base, err := Threshold{T: 10.5}.CPT(space, weights, scores)
	if err != nil {
		t.Fatal(err)
	}
	baseEps := core.MustEpsilon(base).Epsilon
	prev := baseEps
	for _, b := range []float64{0.5, 1, 2, 4} {
		cpt, err := Threshold{T: 10.5, Noise: LaplaceNoise{B: b}}.CPT(space, weights, scores)
		if err != nil {
			t.Fatal(err)
		}
		eps := core.MustEpsilon(cpt).Epsilon
		if eps >= prev {
			t.Fatalf("epsilon did not shrink with noise scale %v: %v >= %v", b, eps, prev)
		}
		prev = eps
	}
	if prev > 0.5*baseEps {
		t.Fatalf("large noise only reduced epsilon to %v from %v", prev, baseEps)
	}
}

// gaussianNoise is zero-mean Gaussian noise. Normal noise on a Normal
// score has a closed-form answer, which checks the quadrature.
type gaussianNoise struct{ sigma float64 }

func (g gaussianNoise) Dist() (dist.Dist, error) { return dist.NewNormal(0, g.sigma) }

func (g gaussianNoise) Name() string { return fmt.Sprintf("Gaussian(sigma=%g)", g.sigma) }

func TestGaussianNoiseSmoothsDecision(t *testing.T) {
	space := core.MustSpace(core.Attr{Name: "group", Values: []string{"1", "2"}})
	scores, _ := NewGaussianScores([]float64{10, 12}, []float64{1, 1})
	cpt, err := Threshold{T: 10.5, Noise: gaussianNoise{sigma: 1}}.CPT(space, []float64{0.5, 0.5}, scores)
	if err != nil {
		t.Fatal(err)
	}
	// Adding N(0,1) noise to an N(10,1) score is an N(10, sqrt 2) score;
	// the exact P(yes|1) is 1 - Phi((10.5-10)/sqrt 2).
	want := 0.5 * math.Erfc((10.5-10)/(math.Sqrt2*math.Sqrt2))
	if got := cpt.Prob(0, 1); math.Abs(got-want) > 1e-5 {
		t.Errorf("noisy P(yes|1) = %v, analytic %v", got, want)
	}
}

func TestNoiseNames(t *testing.T) {
	if (LaplaceNoise{B: 2}).Name() == "" {
		t.Fatal("noise name empty")
	}
}

// TestInvalidNoiseRejectedNotPanicked: CPT validates the noise
// distribution once, up front, and returns an error for an unusable
// scale instead of faulting mid-quadrature.
func TestInvalidNoiseRejectedNotPanicked(t *testing.T) {
	space := core.MustSpace(core.Attr{Name: "group", Values: []string{"1", "2"}})
	scores, _ := NewGaussianScores([]float64{10, 12}, []float64{1, 1})
	for _, noise := range []NoiseModel{
		LaplaceNoise{B: 0},
		LaplaceNoise{B: -3},
		gaussianNoise{sigma: 0},
	} {
		if _, err := (Threshold{T: 10.5, Noise: noise}).CPT(space, []float64{0.5, 0.5}, scores); err == nil {
			t.Errorf("%T with invalid parameters accepted", noise)
		}
	}
}

func TestRandomizedResponseClassical(t *testing.T) {
	rr := RandomizedResponse{P: 0.5}
	cpt, err := rr.CPT()
	if err != nil {
		t.Fatal(err)
	}
	if got := cpt.Prob(1, 1); got != 0.75 {
		t.Errorf("P(answer yes|truth yes) = %v, want 0.75", got)
	}
	if got := cpt.Prob(0, 1); got != 0.25 {
		t.Errorf("P(answer yes|truth no) = %v, want 0.25", got)
	}
	measured := core.MustEpsilon(cpt).Epsilon
	if math.Abs(measured-math.Log(3)) > 1e-12 {
		t.Errorf("measured epsilon = %v, want ln 3", measured)
	}
	if math.Abs(rr.Epsilon()-measured) > 1e-12 {
		t.Errorf("analytic epsilon %v != measured %v", rr.Epsilon(), measured)
	}
}

func TestRandomizedResponseSweepAnalyticMatchesMeasured(t *testing.T) {
	for _, p := range []float64{0.1, 0.3, 0.5, 0.8, 1} {
		rr := RandomizedResponse{P: p}
		cpt, err := rr.CPT()
		if err != nil {
			t.Fatal(err)
		}
		measured := core.MustEpsilon(cpt).Epsilon
		if math.Abs(measured-rr.Epsilon()) > 1e-9 {
			t.Errorf("P=%v: measured %v, analytic %v", p, measured, rr.Epsilon())
		}
	}
	// P=1 is a pure coin flip: perfectly fair.
	if eps := (RandomizedResponse{P: 1}).Epsilon(); math.Abs(eps) > 1e-15 {
		t.Errorf("P=1 epsilon = %v, want 0", eps)
	}
	// P=0 always answers truthfully: infinitely revealing.
	if eps := (RandomizedResponse{P: 0}).Epsilon(); !math.IsInf(eps, 1) {
		t.Errorf("P=0 epsilon = %v, want +Inf", eps)
	}
}

func TestRandomizedResponseValidation(t *testing.T) {
	if _, err := (RandomizedResponse{P: 1.5}).CPT(); err == nil {
		t.Error("P>1 accepted")
	}
	if _, err := (RandomizedResponse{P: -0.1}).CPT(); err == nil {
		t.Error("P<0 accepted")
	}
}
