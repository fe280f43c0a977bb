package dist

import "math"

// Laplace is the double-exponential distribution with location Mu and
// scale B, the noise family of both the Laplace privacy mechanism and
// the paper's "noise route" to differential fairness. The zero value is
// not valid; use NewLaplace.
type Laplace struct {
	Mu float64
	B  float64
}

// NewLaplace returns the Laplace(mu, b) distribution. It returns an
// error when b <= 0 or either parameter is not finite.
func NewLaplace(mu, b float64) (Laplace, error) {
	if err := checkFinite("laplace location", mu); err != nil {
		return Laplace{}, err
	}
	if err := checkPositive("laplace scale", b); err != nil {
		return Laplace{}, err
	}
	return Laplace{Mu: mu, B: b}, nil
}

// PDF returns the density at x.
func (d Laplace) PDF(x float64) float64 {
	return math.Exp(-math.Abs(x-d.Mu)/d.B) / (2 * d.B)
}

// SurvivalAbove returns the upper tail mass P(X > x), exact in the far
// tail where 1-CDF would cancel.
func (d Laplace) SurvivalAbove(x float64) float64 {
	if x < d.Mu {
		return 1 - 0.5*math.Exp((x-d.Mu)/d.B)
	}
	return 0.5 * math.Exp(-(x-d.Mu)/d.B)
}

// batchPDF is the vectorized density kernel used by BatchPDF.
func (d Laplace) batchPDF(xs, dst []float64) {
	inv := 1 / d.B
	norm := 0.5 * inv
	for i, x := range xs {
		dst[i] = norm * math.Exp(-math.Abs(x-d.Mu)*inv)
	}
}
