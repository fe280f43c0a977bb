package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values in 100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 generator looks degenerate: %d distinct values in 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("normal mean = %v, want about 3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("normal variance = %v, want about 4", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		r := New(23)
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := r.Gamma(shape)
			if x < 0 {
				t.Fatalf("Gamma(%v) produced negative draw %v", shape, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-shape) > 0.08*math.Max(1, shape) {
			t.Errorf("Gamma(%v) mean = %v, want about %v", shape, mean, shape)
		}
		if math.Abs(variance-shape) > 0.15*math.Max(1, shape) {
			t.Errorf("Gamma(%v) variance = %v, want about %v", shape, variance, shape)
		}
	}
}

func TestGammaPanicsOnNonPositiveShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) did not panic")
		}
	}()
	New(1).Gamma(0)
}

func TestDirichletSimplex(t *testing.T) {
	r := New(29)
	alpha := []float64{0.5, 1, 3, 10}
	dst := make([]float64, len(alpha))
	for i := 0; i < 1000; i++ {
		r.Dirichlet(dst, alpha)
		var sum float64
		for _, v := range dst {
			if v < 0 || v > 1 {
				t.Fatalf("dirichlet coordinate out of [0,1]: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("dirichlet draw sums to %v", sum)
		}
	}
}

func TestDirichletMean(t *testing.T) {
	r := New(31)
	alpha := []float64{1, 2, 7}
	var alphaSum float64
	for _, a := range alpha {
		alphaSum += a
	}
	sums := make([]float64, len(alpha))
	dst := make([]float64, len(alpha))
	const n = 50000
	for i := 0; i < n; i++ {
		r.Dirichlet(dst, alpha)
		for j, v := range dst {
			sums[j] += v
		}
	}
	for j := range alpha {
		got := sums[j] / n
		want := alpha[j] / alphaSum
		if math.Abs(got-want) > 0.01 {
			t.Errorf("dirichlet mean[%d] = %v, want about %v", j, got, want)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	r := New(43)
	const draws = 400000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	for i, w := range weights {
		got := counts[i] / draws
		want := w / 10
		if math.Abs(got-want) > 0.005 {
			t.Errorf("alias category %d frequency %v, want about %v", i, got, want)
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0, 2})
	r := New(47)
	for i := 0; i < 100000; i++ {
		v := a.Sample(r)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight category %d", v)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a := NewAlias([]float64{5})
	r := New(53)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-category alias sampled nonzero index")
		}
	}
}

func TestAliasPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v) did not panic", w)
				}
			}()
			NewAlias(w)
		}()
	}
}

func TestCategoricalMatchesWeights(t *testing.T) {
	weights := []float64{3, 1}
	r := New(59)
	const draws = 200000
	var zero int
	for i := 0; i < draws; i++ {
		if r.Categorical(weights) == 0 {
			zero++
		}
	}
	got := float64(zero) / draws
	if math.Abs(got-0.75) > 0.005 {
		t.Errorf("categorical P(0) = %v, want about 0.75", got)
	}
}

// Property: alias sampling over random weight vectors always returns a
// valid index with positive weight.
func TestAliasValidIndexProperty(t *testing.T) {
	r := New(61)
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, b := range raw {
			weights[i] = float64(b)
			total += weights[i]
		}
		if total == 0 {
			return true // all-zero weights are rejected by construction
		}
		a := NewAlias(weights)
		for i := 0; i < 200; i++ {
			v := a.Sample(r)
			if v < 0 || v >= len(weights) || weights[v] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
