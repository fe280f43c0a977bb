package resample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/rng"
)

// EpsilonBootstrapSerialAlias is the pre-engine reference implementation:
// every replicate redraws all n observations one at a time from an alias
// table, serially, allocating fresh tables per replicate. It is retained
// as the correctness and performance baseline for the parallel multinomial
// engine (see BenchmarkEpsilonBootstrap) and is not intended for
// production use.
func EpsilonBootstrapSerialAlias(c *core.Counts, alpha float64, b int, level float64, r *rng.RNG) (Interval, error) {
	n, points, err := validateBootstrap([]core.Metric{core.DFEpsilon}, c, alpha, b, level)
	if err != nil {
		return Interval{}, err
	}

	space := c.Space()
	outcomes := c.Outcomes()
	nOut := len(outcomes)
	alias := rng.NewAlias(c.Cells())

	reps := make([]float64, 0, b)
	for rep := 0; rep < b; rep++ {
		boot, err := core.NewCounts(space, outcomes)
		if err != nil {
			return Interval{}, err
		}
		for i := 0; i < n; i++ {
			cell := alias.Sample(r)
			if err := boot.Observe(cell/nOut, cell%nOut); err != nil {
				return Interval{}, err
			}
		}
		cpt, err := boot.Estimate(alpha)
		if err != nil {
			return Interval{}, err
		}
		res, err := core.Epsilon(cpt)
		if err != nil {
			if !errors.Is(err, core.ErrDegenerateSupport) {
				return Interval{}, fmt.Errorf("resample: replicate failed: %w", err)
			}
			reps = append(reps, math.Inf(1))
			continue
		}
		reps = append(reps, res.Epsilon)
	}
	return percentileInterval(points[0], reps, level), nil
}

// BenchmarkEpsilonBootstrap is the headline engine benchmark: a 100k-
// observation contingency table over the 16-group census space,
// bootstrapped with B=200 replicates. "engine" is the parallel O(cells)
// multinomial path; "serial-alias" is the retained pre-engine baseline
// that redraws all 100k observations per replicate from an alias table.
// The engine's allocations stay O(1) per replicate (worker-pool scratch
// only), which ReportAllocs makes visible.
func BenchmarkEpsilonBootstrap(b *testing.B) {
	space := census.Space()
	counts := core.MustCounts(space, census.IncomeValues)
	// Deterministic skewed fill totalling exactly 100k observations.
	const n = 100_000
	r := rng.New(41)
	weights := make([]float64, space.Size()*2)
	for i := range weights {
		weights[i] = 0.2 + r.Float64()
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	placed := 0
	for i, w := range weights {
		k := int(float64(n) * w / wsum)
		if i == len(weights)-1 {
			k = n - placed
		}
		counts.MustAdd(i/2, i%2, float64(k))
		placed += k
	}
	if counts.Total() != n {
		b.Fatalf("fill error: total %v", counts.Total())
	}
	const replicates = 200
	b.Run("engine", func(b *testing.B) {
		rr := rng.New(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Bootstrap(context.Background(), []core.Metric{core.DFEpsilon}, counts, 1, replicates, 0.95, rr, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial-alias", func(b *testing.B) {
		rr := rng.New(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EpsilonBootstrapSerialAlias(counts, 1, replicates, 0.95, rr); err != nil {
				b.Fatal(err)
			}
		}
	})
}
