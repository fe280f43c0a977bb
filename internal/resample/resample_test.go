package resample

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

func makeCounts(t *testing.T, cells ...float64) *core.Counts {
	t.Helper()
	n := len(cells) / 2
	vals := make([]string, n)
	for i := range vals {
		vals[i] = string(rune('a' + i))
	}
	space := core.MustSpace(core.Attr{Name: "g", Values: vals})
	c := core.MustCounts(space, []string{"no", "yes"})
	for g := 0; g < n; g++ {
		c.MustAdd(g, 0, cells[2*g])
		c.MustAdd(g, 1, cells[2*g+1])
	}
	return c
}

// epsilonBootstrap is Bootstrap over ε alone.
func epsilonBootstrap(ctx context.Context, c *core.Counts, alpha float64, b int, level float64, r *rng.RNG, workers int) (Interval, error) {
	ivs, err := Bootstrap(ctx, []core.Metric{core.DFEpsilon}, c, alpha, b, level, r, workers)
	if err != nil {
		return Interval{}, err
	}
	return ivs[0], nil
}

func TestBootstrapCoversPoint(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	iv, err := epsilonBootstrap(context.Background(), c, 0, 400, 0.95, rng.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lo <= iv.Point && iv.Point <= iv.Hi) {
		t.Fatalf("point %v outside interval [%v, %v]", iv.Point, iv.Lo, iv.Hi)
	}
	want := core.MustEpsilon(c.Empirical()).Epsilon
	if math.Abs(iv.Point-want) > 1e-12 {
		t.Fatalf("point %v, want %v", iv.Point, want)
	}
	if iv.InfiniteShare != 0 {
		t.Fatalf("infinite replicates on a dense table: %v", iv.InfiniteShare)
	}
	if len(iv.Replicates) != 400 {
		t.Fatalf("replicates %d", len(iv.Replicates))
	}
}

func TestBootstrapWidthShrinksWithData(t *testing.T) {
	small := makeCounts(t, 40, 60, 70, 30)
	big := makeCounts(t, 4000, 6000, 7000, 3000)
	ivSmall, err := epsilonBootstrap(context.Background(), small, 0, 300, 0.9, rng.New(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	ivBig, err := epsilonBootstrap(context.Background(), big, 0, 300, 0.9, rng.New(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ivBig.Hi-ivBig.Lo >= ivSmall.Hi-ivSmall.Lo {
		t.Fatalf("interval did not shrink: big %v vs small %v",
			ivBig.Hi-ivBig.Lo, ivSmall.Hi-ivSmall.Lo)
	}
}

// TestBootstrapSparsityDiagnostic: with a near-empty outcome cell, some
// unsmoothed replicates go infinite; smoothing removes that entirely.
func TestBootstrapSparsityDiagnostic(t *testing.T) {
	c := makeCounts(t, 99, 1, 50, 50) // group a has a single "yes"
	raw, err := epsilonBootstrap(context.Background(), c, 0, 300, 0.9, rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw.InfiniteShare == 0 {
		t.Fatal("expected some infinite replicates on the sparse table")
	}
	smoothed, err := epsilonBootstrap(context.Background(), c, 1, 300, 0.9, rng.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if smoothed.InfiniteShare != 0 {
		t.Fatalf("smoothed replicates still infinite: %v", smoothed.InfiniteShare)
	}
	if math.IsInf(smoothed.Hi, 1) {
		t.Fatal("smoothed upper bound infinite")
	}
}

func TestBootstrapDeterministicUnderSeed(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	a, err := epsilonBootstrap(context.Background(), c, 1, 100, 0.9, rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epsilonBootstrap(context.Background(), c, 1, 100, 0.9, rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != b.Lo || a.Hi != b.Hi {
		t.Fatal("bootstrap not deterministic under fixed seed")
	}
}

func TestBootstrapValidation(t *testing.T) {
	c := makeCounts(t, 10, 10, 10, 10)
	if _, err := epsilonBootstrap(context.Background(), c, 0, 0, 0.9, rng.New(1), 0); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := epsilonBootstrap(context.Background(), c, 0, 10, 1.5, rng.New(1), 0); err == nil {
		t.Error("bad level accepted")
	}
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	zero := core.MustCounts(space, []string{"no", "yes"})
	if _, err := epsilonBootstrap(context.Background(), zero, 0, 10, 0.9, rng.New(1), 0); err == nil {
		t.Error("empty counts accepted")
	}
	frac := core.MustCounts(space, []string{"no", "yes"})
	frac.MustAdd(0, 0, 1.5)
	frac.MustAdd(1, 1, 1)
	if _, err := epsilonBootstrap(context.Background(), frac, 0, 10, 0.9, rng.New(1), 0); err == nil {
		t.Error("fractional counts accepted")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty percentile not NaN")
	}
	vals := []float64{1, 2, math.Inf(1)}
	if got := percentile(vals, 1); !math.IsInf(got, 1) {
		t.Errorf("top percentile = %v", got)
	}
	if got := percentile(vals, 0); got != 1 {
		t.Errorf("bottom percentile = %v", got)
	}
	// Interpolation adjacent to +Inf yields +Inf rather than NaN.
	if got := percentile(vals, 0.75); !math.IsInf(got, 1) {
		t.Errorf("interpolated-near-inf percentile = %v", got)
	}
}

// TestBootstrapDeterministicAcrossWorkerCounts: the engine's contract is
// that the interval is bit-identical no matter how many workers run the
// replicates.
func TestBootstrapDeterministicAcrossWorkerCounts(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	for _, alpha := range []float64{0, 1} {
		var intervals []Interval
		for _, workers := range []int{1, 2, 8} {
			iv, err := epsilonBootstrap(context.Background(), c, alpha, 200, 0.95, rng.New(17), workers)
			if err != nil {
				t.Fatal(err)
			}
			intervals = append(intervals, iv)
		}
		for i := 1; i < len(intervals); i++ {
			a, b := intervals[0], intervals[i]
			if a.Lo != b.Lo || a.Hi != b.Hi || a.Point != b.Point || a.InfiniteShare != b.InfiniteShare {
				t.Fatalf("alpha=%v: interval differs across worker counts: %+v vs %+v", alpha, a, b)
			}
			for k := range a.Replicates {
				if a.Replicates[k] != b.Replicates[k] {
					t.Fatalf("alpha=%v: replicate %d differs across worker counts", alpha, k)
				}
			}
		}
	}
}

// TestBootstrapDegenerateReplicatesAreInfNotError: with a 2-observation
// table many multinomial resamples concentrate all mass in one group.
// Those replicates are legitimately +Inf; the call must succeed and
// report them via InfiniteShare.
func TestBootstrapDegenerateReplicatesAreInfNotError(t *testing.T) {
	c := makeCounts(t, 1, 1, 1, 1) // four observations over four cells
	iv, err := epsilonBootstrap(context.Background(), c, 0, 400, 0.9, rng.New(5), 0)
	if err != nil {
		t.Fatalf("degenerate replicates failed the call: %v", err)
	}
	if iv.InfiniteShare == 0 {
		t.Fatal("expected a positive share of degenerate (+Inf) replicates")
	}
	// A replicate is finite only when every cell gets exactly one
	// observation (probability 4!/4^4 ≈ 9.4%), so at B=400 finite
	// replicates exist with overwhelming probability.
	if iv.InfiniteShare == 1 {
		t.Fatal("every replicate infinite; resampling looks broken")
	}
}

// TestBootstrapMatchesSerialAliasDistribution: the multinomial engine and
// the retained serial alias baseline draw from the same resampling
// distribution — their interval endpoints must agree closely at high B.
func TestBootstrapMatchesSerialAliasDistribution(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	fast, err := epsilonBootstrap(context.Background(), c, 1, 3000, 0.9, rng.New(21), 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := EpsilonBootstrapSerialAlias(c, 1, 3000, 0.9, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Lo-slow.Lo) > 0.02 || math.Abs(fast.Hi-slow.Hi) > 0.02 {
		t.Fatalf("engines disagree: multinomial [%v, %v] vs alias [%v, %v]",
			fast.Lo, fast.Hi, slow.Lo, slow.Hi)
	}
	if fast.Point != slow.Point {
		t.Fatalf("point estimates differ: %v vs %v", fast.Point, slow.Point)
	}
}

func TestSerialAliasValidation(t *testing.T) {
	c := makeCounts(t, 10, 10, 10, 10)
	if _, err := EpsilonBootstrapSerialAlias(c, 0, 0, 0.9, rng.New(1)); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := EpsilonBootstrapSerialAlias(c, 0, 10, 2, rng.New(1)); err == nil {
		t.Error("bad level accepted")
	}
}

func TestEpsilonBootstrapCtxCanceled(t *testing.T) {
	c := makeCounts(t, 400, 600, 700, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := epsilonBootstrap(ctx, c, 0, 1000, 0.95, rng.New(1), 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A background context and a canceled one must differ only in outcome.
	a, err := epsilonBootstrap(context.Background(), c, 0, 50, 0.95, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := epsilonBootstrap(context.Background(), c, 0, 50, 0.95, rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo != b.Lo || a.Hi != b.Hi {
		t.Errorf("ctx variant diverged: [%v,%v] vs [%v,%v]", a.Lo, a.Hi, b.Lo, b.Hi)
	}
}

// TestBootstrapMultiMetricMatchesSingle: every metric of one Bootstrap
// call is measured over exactly the replicate tables a one-metric call
// with the same seed draws, bit for bit.
func TestBootstrapMultiMetricMatchesSingle(t *testing.T) {
	// A sparse group makes ε infinite on many replicates.
	c := makeCounts(t, 40, 60, 2, 1, 30, 25)
	ms := []core.Metric{core.DFEpsilon, fairmetrics.WorstRatio{}, fairmetrics.WorstGap{}}
	all, err := Bootstrap(context.Background(), ms, c, 0, 300, 0.9, rng.New(19), 3)
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range ms {
		one, err := Bootstrap(context.Background(), []core.Metric{m}, c, 0, 300, 0.9, rng.New(19), 1)
		if err != nil {
			t.Fatal(err)
		}
		got, want := all[j], one[0]
		if got.Point != want.Point || got.Lo != want.Lo || got.Hi != want.Hi ||
			got.InfiniteShare != want.InfiniteShare {
			t.Errorf("%s: multi-metric interval %+v differs from one-metric %+v", m.Key(), got, want)
		}
		for i := range want.Replicates {
			if math.Float64bits(got.Replicates[i]) != math.Float64bits(want.Replicates[i]) {
				t.Fatalf("%s: replicate %d = %v, want %v", m.Key(), i, got.Replicates[i], want.Replicates[i])
			}
		}
	}
}
