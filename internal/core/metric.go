package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// MetricResult is one measured fairness-metric value with the witness
// groups that achieved it — the generic form of EpsilonResult, shared by
// every Metric implementation.
type MetricResult struct {
	// Value is the measured metric.
	Value float64
	// Witness identifies the (outcome, most-favored, least-favored)
	// triple behind the value, in the metric's own terms.
	Witness Witness
	// Finite is false when Value is non-finite (±Inf).
	Finite bool
}

// Metric is a fairness metric computable from one CPT snapshot — the
// same (group, outcome) table ε consumes. Implementations are immutable
// values: Eval must be deterministic, allocation-light, and safe to call
// concurrently, so the bootstrap/credible engines can evaluate a metric
// per replicate on pooled buffers with bit-identical results regardless
// of GOMAXPROCS.
//
// ε-differential fairness (EpsilonMetric), the worst-case pairwise
// family of Ghosh et al., and the α-intersectional family of Maheshwari
// et al. (internal/fairmetrics) all implement it; the resampling
// engines, subset ladder, Watch alerting, and the versioned Report are
// generic over it.
type Metric interface {
	// Key is the stable registry/selector identifier, e.g. "epsilon".
	Key() string
	// Describe is a one-line human-readable description with citation.
	Describe() string
	// HigherIsWorse orients the metric: true when larger values mean
	// more unfairness (ε, gaps), false when smaller values do
	// (min/max ratios).
	HigherIsWorse() bool
	// WorstValue is the value scored by a degenerate resample (fewer
	// than two supported groups — nothing to compare): the
	// most-unfair representable value, +Inf for ε-like metrics.
	WorstValue() float64
	// Applicable reports whether the metric is defined on tables of
	// this shape (e.g. binary-outcome-only metrics reject multi-outcome
	// vocabularies) with a descriptive error.
	Applicable(space *Space, outcomes []string) error
	// Eval measures the metric on one CPT. A table with fewer than two
	// supported groups fails with an error wrapping
	// ErrDegenerateSupport; resampling layers score such replicates as
	// WorstValue instead of failing.
	Eval(c *CPT) (MetricResult, error)
}

// Extrema is the per-outcome extreme-rate view of a table's supported
// groups: everything ε and the worst-case pairwise metrics read from a
// CPT. A scan of a CPT (CPT.OutcomeExtrema) and the streaming engine's
// incrementally maintained cache produce the same view, ties broken
// toward the lowest group index, so a metric computed from it is
// bit-identical to the same metric's Eval on the CPT.
type Extrema struct {
	// Supported is the number of supported groups (P(s) > 0).
	Supported int
	// Hi[y] and Lo[y] are the maximum and minimum of P(y|s) over the
	// supported groups (−Inf and +Inf when none is supported).
	Hi, Lo []float64
	// HiG[y] and LoG[y] are the lowest group indices attaining Hi[y]
	// and Lo[y], or −1 when no group is supported.
	HiG, LoG []int32
}

// Validate fails with an error wrapping ErrDegenerateSupport when fewer
// than two groups are supported — the condition CPT.Validate reports
// for the table the view describes.
func (e *Extrema) Validate() error {
	if e.Supported < 2 {
		return degenerateSupport(e.Supported)
	}
	return nil
}

// ExtremaMetric is a Metric that is a function of the per-outcome
// extrema alone. EvalExtrema must agree with Eval on every CPT whose
// extrema it is given — values, witnesses and ErrDegenerateSupport — so
// a caller that keeps Extrema current (the streaming Watch) can skip
// building the CPT. Metrics that read more of the table (group masses,
// the pooled rate) implement only Metric.
type ExtremaMetric interface {
	Metric
	EvalExtrema(e *Extrema) (MetricResult, error)
}

// MetricWorse reports whether a is worse (more unfair) than b under the
// metric's orientation.
func MetricWorse(m Metric, a, b float64) bool {
	if m.HigherIsWorse() {
		return a > b
	}
	return a < b
}

// MetricBreached reports whether a measured value crosses the threshold
// on the metric's unfair side: value > threshold for higher-is-worse
// metrics, value < threshold otherwise (e.g. a worst-case ratio under
// the 0.8 disparate-impact line).
func MetricBreached(m Metric, value, threshold float64) bool {
	return MetricWorse(m, value, threshold)
}

// EpsilonMetric is differential fairness as a Metric: the paper's ε
// (Definition 3.1) adapted to the generic metric pipeline. Eval is
// exactly Epsilon, so values, witnesses and degenerate-support errors
// match the dedicated ε path bit for bit.
type EpsilonMetric struct{}

// DFEpsilon is the canonical EpsilonMetric instance.
var DFEpsilon Metric = EpsilonMetric{}

// Key implements Metric.
func (EpsilonMetric) Key() string { return "epsilon" }

// Describe implements Metric.
func (EpsilonMetric) Describe() string {
	return "differential fairness ε: max |ln P(y|si) − ln P(y|sj)| over outcomes and supported group pairs (Foulds et al., ICDE 2020)"
}

// HigherIsWorse implements Metric.
func (EpsilonMetric) HigherIsWorse() bool { return true }

// WorstValue implements Metric.
func (EpsilonMetric) WorstValue() float64 { return math.Inf(1) }

// Applicable implements Metric: ε is defined on every table shape.
func (EpsilonMetric) Applicable(space *Space, outcomes []string) error {
	if space == nil {
		return fmt.Errorf("core: epsilon: nil space")
	}
	if len(outcomes) < 2 {
		return fmt.Errorf("core: epsilon: need at least two outcomes, got %d", len(outcomes))
	}
	return nil
}

// Eval implements Metric.
func (EpsilonMetric) Eval(c *CPT) (MetricResult, error) {
	r, err := Epsilon(c)
	if err != nil {
		return MetricResult{}, err
	}
	return r.AsMetric(), nil
}

// EvalExtrema implements ExtremaMetric: Epsilon's outcome fold over
// cached extrema instead of a CPT scan.
//
//df:hotpath
func (EpsilonMetric) EvalExtrema(e *Extrema) (MetricResult, error) {
	if err := e.Validate(); err != nil {
		return MetricResult{}, err
	}
	res := EpsilonResult{Epsilon: 0, Finite: true}
	for y := range e.Hi {
		if epsilonStep(&res, y, int(e.HiG[y]), int(e.LoG[y]), e.Hi[y], e.Lo[y]) {
			break
		}
	}
	return res.AsMetric(), nil
}

// AsMetric is the ε result in the generic metric form.
func (r EpsilonResult) AsMetric() MetricResult {
	return MetricResult{Value: r.Epsilon, Witness: r.Witness, Finite: r.Finite}
}

// AsEpsilon is the inverse of EpsilonResult.AsMetric, for an ε measured
// through the generic metric path.
func (r MetricResult) AsEpsilon() EpsilonResult {
	return EpsilonResult{Epsilon: r.Value, Witness: r.Witness, Finite: r.Finite}
}

// SubsetMetric is one metric value measured over a subset of the
// protected attributes — the generic form of SubsetEpsilon.
type SubsetMetric struct {
	Attrs  []string
	Result MetricResult
	// Space is the marginal space the subset was measured over; its
	// Label method renders the witness group indices in Result.
	Space *Space
}

// Key renders the subset as a comma-joined attribute list.
func (s SubsetMetric) Key() string { return strings.Join(s.Attrs, ",") }

// MetricSubsetsCounts measures every metric for every nonempty subset
// of the protected attributes by aggregating counts — the Table 2 ladder
// generalized beyond ε. The lattice is walked once: each subset's
// marginal counts are derived from a one-attribute-larger parent (so the
// total marginalization work is Σ over subsets of the *parent* table
// size rather than 2^p × the full table size), converted to one CPT
// under the selected estimator (alpha > 0: Eq. 7), and every metric is
// evaluated on it. out[j] is metric j's ladder in Space.SubsetNames
// order.
func MetricSubsetsCounts(ms []Metric, c *Counts, alpha float64) ([][]SubsetMetric, error) {
	space := c.Space()
	marg, err := latticeMarginals(c)
	if err != nil {
		return nil, err
	}
	names := space.SubsetNames()
	out := make([][]SubsetMetric, len(ms))
	for j := range out {
		out[j] = make([]SubsetMetric, 0, len(names))
	}
	for _, sub := range names {
		mask, err := subsetMask(space, sub)
		if err != nil {
			return nil, err
		}
		cpt, err := marg[mask].Estimate(alpha)
		if err != nil {
			return nil, err
		}
		for j, m := range ms {
			r, err := m.Eval(cpt)
			if err != nil {
				return nil, fmt.Errorf("core: subset %v: %w", sub, err)
			}
			out[j] = append(out[j], SubsetMetric{Attrs: sub, Result: r, Space: cpt.Space()})
		}
	}
	return out, nil
}

// SortSubsetsByMetricValue orders subset results from least to most
// unfair under the metric's orientation, with the same lexicographic
// attribute-subset tie-breaking as SortSubsetsByEpsilon, so metric
// ladders are a deterministic function of the input.
func SortSubsetsByMetricValue(m Metric, subs []SubsetMetric) {
	sort.SliceStable(subs, func(i, j int) bool {
		vi, vj := subs[i].Result.Value, subs[j].Result.Value
		if vi != vj {
			return MetricWorse(m, vj, vi)
		}
		return slices.Compare(subs[i].Attrs, subs[j].Attrs) < 0
	})
}
