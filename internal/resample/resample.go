// Package resample provides frequentist uncertainty quantification for
// measured ε via the bootstrap — the counterpart to internal/bayes's
// posterior credible intervals. Small intersections make the plug-in ε
// of Eq. 6 noisy (the sparsity problem the paper's Eq. 7 addresses);
// bootstrap intervals make that noise visible.
//
// Replicates run on a parallel engine: each replicate is one
// conditional-binomial multinomial draw over the (group, outcome) cells —
// O(|A|·|Y|) rather than the O(n) per-observation draws of alias
// resampling — executed on a worker pool whose workers reuse a private
// Counts/CPT buffer pair and a re-seedable RNG. Replicate r always uses
// RNG substream (seed, r) and writes only slot r, so intervals are
// bit-identical regardless of GOMAXPROCS.
package resample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
)

// Interval is a percentile bootstrap interval for one metric.
type Interval struct {
	// Point is the metric value of the original counts.
	Point float64
	// Lo and Hi bound the central interval at the requested level.
	Lo, Hi float64
	// Level is the confidence level, e.g. 0.95.
	Level float64
	// Replicates holds the sorted bootstrap values (infinite
	// replicates are recorded as +Inf and sort to the end).
	Replicates []float64
	// InfiniteShare is the fraction of non-finite replicates — for
	// empirical ε itself a sparsity diagnostic.
	InfiniteShare float64
}

// Bootstrap resamples the contingency table B times (multinomial over
// all (group, outcome) cells, preserving the total count) and returns,
// for each metric in order, the percentile interval at the given level.
// Each replicate table is drawn once and every metric evaluates it, so
// all intervals are measured over exactly the same resampled tables.
// alpha > 0 applies Eq. 7 smoothing to each replicate.
//
// A replicate whose table degenerates to fewer than two supported
// groups scores each metric's WorstValue (+Inf for ε); with alpha = 0 ε
// may also be legitimately infinite. InfiniteShare counts the
// non-finite replicates, which for bounded metrics is always 0, and
// infinite values sort to the end of the percentiles.
//
// ctx must be non-nil and carries cooperative cancellation: when it is
// canceled mid-run the workers stop claiming replicates and the call
// returns ctx.Err() promptly instead of intervals. workers pins the
// pool size (0 = one per CPU). The intervals for a given (metrics,
// counts, alpha, b, level, r) are deterministic and independent of both
// GOMAXPROCS and workers.
func Bootstrap(ctx context.Context, ms []core.Metric, c *core.Counts, alpha float64, b int, level float64, r *rng.RNG, workers int) ([]Interval, error) {
	n, points, err := validateBootstrap(ms, c, alpha, b, level)
	if err != nil {
		return nil, err
	}

	// The original cell counts are the multinomial weights. Cells() is a
	// live view; every replicate only reads it.
	space := c.Space()
	outcomes := c.Outcomes()
	weights := c.Cells()

	// One base draw from the caller's generator keeps the public contract
	// "seeded by r"; replicate i then owns substream (base, i) so results
	// do not depend on which worker runs it.
	base := r.Uint64()

	type scratch struct {
		boot *core.Counts
		cpt  *core.CPT
		rng  *rng.RNG
	}
	reps := make([][]float64, len(ms))
	for j := range reps {
		reps[j] = make([]float64, b)
	}
	err = par.DoCtx(ctx, workers, b, func() *scratch {
		return &scratch{
			boot: core.MustCounts(space, outcomes),
			cpt:  core.MustCPT(space, outcomes),
			rng:  rng.New(0),
		}
	}, func(s *scratch, i int) error {
		s.rng.SeedStream(base, uint64(i))
		// One multinomial draw fills every cell of the replicate table:
		// O(cells), allocation-free.
		s.rng.Multinomial(s.boot.Cells(), n, weights)
		if err := s.boot.EstimateInto(s.cpt, alpha); err != nil {
			return err
		}
		for j, m := range ms {
			res, err := m.Eval(s.cpt)
			if err != nil {
				if errors.Is(err, core.ErrDegenerateSupport) {
					// The resample concentrated all mass in fewer than two
					// groups: legitimately the most-unfair representable
					// value, not a failure.
					reps[j][i] = m.WorstValue()
					continue
				}
				// Anything else is a real bug (invalid probabilities, shape
				// mismatch) and must not be silently scored as worst.
				return fmt.Errorf("metric %s: %w", m.Key(), err)
			}
			reps[j][i] = res.Value
		}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("resample: replicate failed: %w", err)
	}
	out := make([]Interval, len(ms))
	for j := range ms {
		out[j] = percentileInterval(points[j], reps[j], level)
	}
	return out, nil
}

// percentileInterval sorts the replicate values in place and summarizes
// them as the central interval at the given level.
func percentileInterval(point float64, reps []float64, level float64) Interval {
	infinite := 0
	for _, v := range reps {
		if math.IsInf(v, 0) {
			infinite++
		}
	}
	sort.Float64s(reps)
	return Interval{
		Point:         point,
		Lo:            percentile(reps, (1-level)/2),
		Hi:            percentile(reps, 1-(1-level)/2),
		Level:         level,
		Replicates:    reps,
		InfiniteShare: float64(infinite) / float64(len(reps)),
	}
}

// validateBootstrap checks the arguments shared by both bootstrap
// implementations and returns the integer observation total plus each
// metric's point value on the original table.
func validateBootstrap(ms []core.Metric, c *core.Counts, alpha float64, b int, level float64) (n int, points []float64, err error) {
	if b <= 0 {
		return 0, nil, fmt.Errorf("resample: need B > 0 replicates, got %d", b)
	}
	if !(level > 0 && level < 1) {
		return 0, nil, fmt.Errorf("resample: level %v outside (0,1)", level)
	}
	total := c.Total()
	if total <= 0 {
		return 0, nil, fmt.Errorf("resample: empty counts")
	}
	n = int(math.Round(total))
	if math.Abs(total-float64(n)) > 1e-9 {
		return 0, nil, fmt.Errorf("resample: bootstrap requires integer counts, total is %v", total)
	}
	cpt, err := c.Estimate(alpha)
	if err != nil {
		return 0, nil, err
	}
	points = make([]float64, len(ms))
	for j, m := range ms {
		res, err := m.Eval(cpt)
		if err != nil {
			return 0, nil, err
		}
		points[j] = res.Value
	}
	return n, points, nil
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	if math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
