// Package dist is the probability-distribution substrate shared by the
// noise mechanisms (internal/mechanism) and the experiment harness
// (internal/experiments).
//
// Every distribution is a small immutable value constructed through a
// validating New* function; once constructed, every method is total — no
// method on a validated distribution panics or returns an error. The
// package provides the two continuous families the paper's §3.2
// mechanism analysis needs: Normal for the Figure 2 score model and
// Laplace for the noise route to differential fairness.
//
// For hot paths that evaluate a density over many points (the Figure 2
// density sweep, the noisy-threshold quadrature), BatchPDF and
// DensityGrid provide a vectorized evaluation path with per-family
// kernels and a worker pool; see batch.go.
package dist

import (
	"fmt"
	"math"
)

// Dist is what the mechanisms ask of a distribution: its density, for
// the quadrature over a score model, and its upper tail, for the
// probability that noise clears a threshold. The unexported batch
// kernel keeps the implementations in this package, where BatchPDF can
// rely on every family having one.
type Dist interface {
	// PDF returns the density at x.
	PDF(x float64) float64
	// SurvivalAbove returns the upper tail mass P(X > x).
	SurvivalAbove(x float64) float64
	// batchPDF evaluates PDF at every point of xs into dst.
	batchPDF(xs, dst []float64)
}

// invSqrt2Pi is 1/sqrt(2*pi), the normalizing constant of the standard
// normal density.
const invSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346576659406529

// checkFinite returns an error naming the parameter when v is NaN or ±Inf.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("dist: %s must be finite, got %v", name, v)
	}
	return nil
}

// checkPositive returns an error naming the parameter when v is not a
// finite positive number.
func checkPositive(name string, v float64) error {
	if err := checkFinite(name, v); err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("dist: %s must be positive, got %v", name, v)
	}
	return nil
}
