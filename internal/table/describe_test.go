package table

import (
	"math"
	"strings"
	"testing"
)

func TestDescribeNumeric(t *testing.T) {
	f := MustFrame(NewFloat("v", []float64{1, 2, 3, 4}))
	s := f.Describe()[0]
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("range [%v, %v]", s.Min, s.Max)
	}
	if s.Mean != 2.5 {
		t.Errorf("mean %v", s.Mean)
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std %v, want %v", s.Std, want)
	}
}

func TestDescribeCategorical(t *testing.T) {
	f := MustFrame(NewCategorical("c", []string{"a", "b", "a", "a"}))
	s := f.Describe()[0]
	if s.Levels != 2 {
		t.Errorf("levels %d", s.Levels)
	}
	if s.TopName != "a" || math.Abs(s.TopFrac-0.75) > 1e-12 {
		t.Errorf("mode %q (%v)", s.TopName, s.TopFrac)
	}
}

func TestDescribeString(t *testing.T) {
	f := MustFrame(
		NewCategorical("g", []string{"x", "x", "y"}),
		NewInt("n", []int64{1, 5, 9}),
	)
	out := f.DescribeString()
	for _, want := range []string{"3 rows x 2 columns", "2 levels", `mode "x"`, "min 1, max 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
}
