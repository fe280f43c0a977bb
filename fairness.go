// Package fairness is the public API of this reproduction of Foulds &
// Pan, "An Intersectional Definition of Fairness" (ICDE 2020). It
// re-exports the differential-fairness core so downstream users interact
// with a single import path:
//
//	import fairness "repro"
//
//	space := fairness.MustSpace(
//		fairness.Attr{Name: "gender", Values: []string{"M", "F"}},
//		fairness.Attr{Name: "race", Values: []string{"white", "black", "other"}},
//	)
//	counts := fairness.MustCounts(space, []string{"deny", "approve"})
//	// ... counts.Observe(group, outcome) over your data ...
//	eps := fairness.MustEpsilon(counts.Empirical())
//
// The front door for complete audits is the Auditor: one configured
// pipeline producing a versioned Report (ε ladder, witnesses,
// interpretation, bootstrap/credible uncertainty, Simpson reversals,
// repair plan) with stable JSON rendering:
//
//	auditor, err := fairness.NewAuditor(space, outcomes,
//		fairness.WithBootstrap(500, 0.95),
//		fairness.WithCredible(500, 1, 0.95),
//	)
//	report, err := auditor.Run(ctx, counts)
//	report.RenderJSON(os.Stdout) // or RenderText
//
// ctx is threaded through the parallel resampling engines, so in-flight
// audits cancel cleanly. cmd/dfaudit renders the same report on the
// command line and cmd/dfserve serves it over HTTP (POST /v1/audit);
// for identical inputs, options and seed all three produce byte-identical
// JSON. For deployed systems, Monitor is a sharded concurrent streaming
// estimator: goroutines Observe/ObserveBatch in O(1) amortized per
// decision under exponential-decay, tumbling- or sliding-window
// policies, and Monitor.Audit snapshots the live table into the same
// report. cmd/dfserve hosts a registry of named monitors
// (PUT/POST/GET /v1/monitors/...) on top of it.
//
// The core concepts:
//
//   - Space: the Cartesian product of protected attributes (Definition
//     3.1's A = S1 × … × Sp). Every combination of attribute values is an
//     intersectional group.
//   - CPT: P(outcome | group) plus group weights P(group) — one data
//     distribution θ combined with a mechanism M(x).
//   - Counts: a contingency table, convertible to a CPT by the empirical
//     estimator (Eq. 6) or the Dirichlet-smoothed estimator (Eq. 7).
//   - Epsilon: the differential-fairness parameter; ε = 0 is perfect
//     parity across every intersection, and by Theorem 3.2 any subset of
//     the protected attributes is automatically 2ε-fair.
//
// Sub-packages under internal/ provide the substrates (mechanisms,
// Bayesian estimation, classifiers, the synthetic census) used by the examples, CLI tools and the experiment harness.
package fairness

import (
	"repro/internal/core"
)

// Attr is one discrete protected attribute (name plus value labels).
type Attr = core.Attr

// Space is the Cartesian product of protected attributes.
type Space = core.Space

// CPT is a conditional probability table P(y | s) with group weights.
type CPT = core.CPT

// Counts is a contingency table of outcomes per intersectional group.
type Counts = core.Counts

// EpsilonResult is a measured differential-fairness parameter with its
// witnessing outcome/group pair.
type EpsilonResult = core.EpsilonResult

// Witness identifies the outcome and group pair achieving the maximal
// probability ratio.
type Witness = core.Witness

// SubsetEpsilon is ε measured for one subset of the protected attributes.
type SubsetEpsilon = core.SubsetEpsilon

// SimpsonReversal describes a detected Simpson's-paradox reversal.
type SimpsonReversal = core.SimpsonReversal

// EpsilonInterpretation is the Section 3.3 reading of an ε value.
type EpsilonInterpretation = core.EpsilonInterpretation

// NewSpace builds a protected-attribute space.
func NewSpace(attrs ...Attr) (*Space, error) { return core.NewSpace(attrs...) }

// MustSpace is NewSpace but panics on error.
func MustSpace(attrs ...Attr) *Space { return core.MustSpace(attrs...) }

// NewCPT creates an empty conditional probability table.
func NewCPT(space *Space, outcomes []string) (*CPT, error) { return core.NewCPT(space, outcomes) }

// MustCPT is NewCPT but panics on error.
func MustCPT(space *Space, outcomes []string) *CPT { return core.MustCPT(space, outcomes) }

// NewCounts creates a zeroed contingency table.
func NewCounts(space *Space, outcomes []string) (*Counts, error) {
	return core.NewCounts(space, outcomes)
}

// MustCounts is NewCounts but panics on error.
func MustCounts(space *Space, outcomes []string) *Counts { return core.MustCounts(space, outcomes) }

// FromObservations builds Counts from parallel group/outcome index
// slices.
func FromObservations(space *Space, outcomes []string, groups, ys []int) (*Counts, error) {
	return core.FromObservations(space, outcomes, groups, ys)
}

// Epsilon computes the differential-fairness parameter of a CPT
// (Definition 3.1 for a single θ; Definition 4.2/Eq. 6 when the CPT came
// from Counts.Empirical).
func Epsilon(c *CPT) (EpsilonResult, error) { return core.Epsilon(c) }

// MustEpsilon is Epsilon but panics on error.
func MustEpsilon(c *CPT) EpsilonResult { return core.MustEpsilon(c) }

// FrameworkEpsilon computes ε over a set Θ of plausible data
// distributions: the supremum of per-θ ε values.
func FrameworkEpsilon(thetas []*CPT) (EpsilonResult, error) { return core.FrameworkEpsilon(thetas) }

// EpsilonSubsetsCPT computes ε for every nonempty subset of the
// protected attributes by marginalizing the CPT (Theorems 3.1/3.2
// guarantee each is at most 2× the full ε).
func EpsilonSubsetsCPT(c *CPT) ([]SubsetEpsilon, error) { return core.EpsilonSubsetsCPT(c) }

// EpsilonSubsetsCounts computes ε per attribute subset from counts, the
// computation behind the paper's Table 2. alpha > 0 selects the Eq. 7
// smoothed estimator.
func EpsilonSubsetsCounts(c *Counts, alpha float64) ([]SubsetEpsilon, error) {
	return core.EpsilonSubsetsCounts(c, alpha)
}

// SortSubsetsByEpsilon orders subset results by increasing ε.
func SortSubsetsByEpsilon(subs []SubsetEpsilon) { core.SortSubsetsByEpsilon(subs) }

// BiasAmplification returns ε_mechanism − ε_data (Section 4.1).
func BiasAmplification(mechanism, data EpsilonResult) float64 {
	return core.BiasAmplification(mechanism, data)
}

// SubsetBound returns the 2ε guarantee of Theorem 3.2.
func SubsetBound(full EpsilonResult) float64 { return core.SubsetBound(full) }

// PosteriorOdds evaluates the Eq. 4 privacy guarantee for a concrete
// prior: prior and posterior odds of group si versus sj given an outcome.
func PosteriorOdds(c *CPT, prior []float64, outcome, si, sj int) (priorOdds, posteriorOdds float64, err error) {
	return core.PosteriorOdds(c, prior, outcome, si, sj)
}

// CheckPosteriorOddsBound verifies Eq. 4 for every outcome and group
// pair under the given prior and ε.
func CheckPosteriorOddsBound(c *CPT, prior []float64, eps float64) error {
	return core.CheckPosteriorOddsBound(c, prior, eps)
}

// ExpectedUtility returns E[u(y) | s] for a non-negative utility vector.
func ExpectedUtility(c *CPT, group int, utility []float64) (float64, error) {
	return core.ExpectedUtility(c, group, utility)
}

// UtilityDisparity returns the worst-case expected-utility ratio between
// groups; Eq. 5 bounds it by e^ε.
func UtilityDisparity(c *CPT, utility []float64) (float64, error) {
	return core.UtilityDisparity(c, utility)
}

// Interpret returns the Section 3.3 reading of a measured ε.
func Interpret(eps float64) EpsilonInterpretation { return core.Interpret(eps) }

// RandomizedResponseEpsilon is ln 3, the §3.3 calibration constant.
var RandomizedResponseEpsilon = core.RandomizedResponseEpsilon

// DetectSimpsonReversals scans a two-attribute contingency table for
// Simpson's-paradox reversals of the given outcome (Section 5.1).
func DetectSimpsonReversals(c *Counts, outcome int) ([]SimpsonReversal, error) {
	return core.DetectSimpsonReversals(c, outcome)
}

// LabeledCounts is a (group, true label, prediction) contingency table,
// the input to the equalized-odds analogue of DF (the extension the
// paper sketches in Section 7.1).
type LabeledCounts = core.LabeledCounts

// EqualizedOddsResult is the per-stratum ε summary of the equalized-odds
// analogue.
type EqualizedOddsResult = core.EqualizedOddsResult

// NewLabeledCounts creates a zeroed labeled table.
func NewLabeledCounts(space *Space, labels, outcomes []string) (*LabeledCounts, error) {
	return core.NewLabeledCounts(space, labels, outcomes)
}

// FromLabeledObservations builds LabeledCounts from parallel slices of
// group, true-label and prediction indices.
func FromLabeledObservations(space *Space, labels, outcomes []string, groups, ys, preds []int) (*LabeledCounts, error) {
	return core.FromLabeledObservations(space, labels, outcomes, groups, ys, preds)
}

// EqualizedOddsEpsilon computes the equalized-odds analogue of DF: the
// max over true-label strata of the within-stratum ε. alpha > 0 applies
// Eq. 7 smoothing per stratum.
func EqualizedOddsEpsilon(c *LabeledCounts, alpha float64) (EqualizedOddsResult, error) {
	return core.EqualizedOddsEpsilon(c, alpha)
}

// EqualOpportunityEpsilon restricts the equalized-odds analogue to one
// deserving label.
func EqualOpportunityEpsilon(c *LabeledCounts, deservingLabel int, alpha float64) (EpsilonResult, error) {
	return core.EqualOpportunityEpsilon(c, deservingLabel, alpha)
}

// ComposeIndependent returns the joint mechanism of two conditionally
// independent mechanisms over the same protected space; DF composes
// additively: ε(M1⊗M2) ≤ ε(M1) + ε(M2).
func ComposeIndependent(a, b *CPT) (*CPT, error) { return core.ComposeIndependent(a, b) }

// ComposeAll folds ComposeIndependent over several mechanisms.
func ComposeAll(cpts ...*CPT) (*CPT, error) { return core.ComposeAll(cpts...) }

// FromScoredObservations bins continuous scores in [0,1] into outcome
// counts, extending DF to score distributions.
func FromScoredObservations(space *Space, groups []int, scores []float64, bins int) (*Counts, error) {
	return core.FromScoredObservations(space, groups, scores, bins)
}
