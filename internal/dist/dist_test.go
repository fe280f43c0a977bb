package dist

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

// --- Constructor validation ---

func TestNewNormalValidation(t *testing.T) {
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewNormal(0, sigma); err == nil {
			t.Errorf("NewNormal accepted sigma=%v", sigma)
		}
	}
	if _, err := NewNormal(math.NaN(), 1); err == nil {
		t.Error("NewNormal accepted NaN mean")
	}
	if _, err := NewNormal(3, 2); err != nil {
		t.Errorf("NewNormal rejected valid parameters: %v", err)
	}
}

func TestNewLaplaceValidation(t *testing.T) {
	for _, b := range []float64{0, -0.5, math.NaN(), math.Inf(1)} {
		if _, err := NewLaplace(0, b); err == nil {
			t.Errorf("NewLaplace accepted b=%v", b)
		}
	}
	if _, err := NewLaplace(math.Inf(-1), 1); err == nil {
		t.Error("NewLaplace accepted infinite location")
	}
	if _, err := NewLaplace(-1, 2.5); err != nil {
		t.Errorf("NewLaplace rejected valid parameters: %v", err)
	}
}

// --- Golden closed-form values ---

func TestNormalGoldenValues(t *testing.T) {
	std := Normal{Mu: 0, Sigma: 1}
	approx(t, "std.PDF(0)", std.PDF(0), 0.3989422804014327, 1e-15)
	approx(t, "std.PDF(1)", std.PDF(1), 0.24197072451914337, 1e-15)
	approx(t, "std.SurvivalAbove(0)", std.SurvivalAbove(0), 0.5, 1e-15)
	approx(t, "std.SurvivalAbove(1)", std.SurvivalAbove(1), 1-0.8413447460685429, 1e-14)
	approx(t, "std.SurvivalAbove(1.96)", std.SurvivalAbove(1.96), 1-0.9750021048517795, 1e-14)

	d := Normal{Mu: 10, Sigma: 2}
	approx(t, "N(10,2).PDF(10)", d.PDF(10), 0.19947114020071635, 1e-15)
	approx(t, "N(10,2).SurvivalAbove(10)", d.SurvivalAbove(10), 0.5, 1e-15)
	// Deep tail: survival must keep relative precision where 1-CDF cannot.
	approx(t, "std.SurvivalAbove(10)", std.SurvivalAbove(10), 7.619853024160527e-24, 1e-37)
}

func TestLaplaceGoldenValues(t *testing.T) {
	std := Laplace{Mu: 0, B: 1}
	approx(t, "Lap(0,1).PDF(0)", std.PDF(0), 0.5, 1e-15)
	approx(t, "Lap(0,1).PDF(3)", std.PDF(3), 0.5*math.Exp(-3), 1e-16)
	approx(t, "Lap(0,1).SurvivalAbove(0)", std.SurvivalAbove(0), 0.5, 1e-15)
	approx(t, "Lap(0,1).SurvivalAbove(-1)", std.SurvivalAbove(-1), 1-0.5*math.Exp(-1), 1e-15)
	approx(t, "Lap(0,1).SurvivalAbove(1)", std.SurvivalAbove(1), 0.5*math.Exp(-1), 1e-16)

	d := Laplace{Mu: 2, B: 3}
	approx(t, "Lap(2,3).PDF(2)", d.PDF(2), 1.0/6, 1e-16)
	approx(t, "Lap(2,3).SurvivalAbove(2)", d.SurvivalAbove(2), 0.5, 1e-15)
}
