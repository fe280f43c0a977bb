// Package stream supports continuous fairness monitoring of deployed
// systems — the paper's "critiquing of deployed systems by scholars and
// activists" use case (Section 1) — at production ingest rates.
//
// The Monitor is a sharded concurrent contingency table: observations
// take a ticket from one global atomic counter and land in a per-shard
// strided count table under a per-shard lock, so concurrent observe
// streams scale with cores instead of serializing on one mutex.
// Snapshots merge the shards into a single core.Counts (merge-on-
// snapshot via Counts.AddScaled / Counts.Merge).
//
// Three window policies share the engine:
//
//   - Exponential{HalfLife}: every prior observation's influence decays
//     by 2^(-1/HalfLife) per new observation, so recent decisions
//     dominate the ε estimate and drift surfaces quickly.
//   - Tumbling{Window}: the table covers only the current fixed-size
//     window and resets at each window boundary.
//   - Sliding{Window, Buckets}: the table covers (approximately) the
//     most recent Window observations, evicted in Window/Buckets-sized
//     bucket increments.
//
// Reporting is two-speed. Snapshots and one-off Epsilon calls merge the
// shards on demand; Watch threshold checks and EpsilonSubsets instead
// run on an incrementally-maintained aggregate (incremental.go) fed by
// per-shard dirty-cell logs. A per-batch check syncs that aggregate once
// and judges every armed threshold against it. Under a window policy
// the aggregate caches per-outcome probability extrema, so ε and every
// other core.ExtremaMetric (worst-case gap and ratio, α-intersectional,
// DP gap) cost O(cells touched since the last check) plus O(outcomes)
// each; a metric without an extrema form (subgroup parity), or any
// metric under exponential decay, adds one O(cells) CPT built from the
// aggregate — never the O(shards × cells) merge. Results are
// bit-identical to the full recompute for the integer-count window
// policies.
//
// Concurrency semantics: counts for the window policies are plain sums,
// so after all writers finish, a snapshot is exactly the single-threaded
// result regardless of interleaving (up to float summation order). For
// the exponential policy the total effective mass depends only on the
// number of observations and is likewise exact; the per-cell split
// additionally depends on which ticket each observation drew, which
// concurrent ingestion makes nondeterministic within the reorder window
// of the racing goroutines (a few observations' worth of decay — far
// below estimation noise for any realistic half-life).
package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Monitor maintains windowed outcome counts per intersectional group and
// reports ε on demand. It is safe for concurrent use: Observe and
// ObserveBatch may be called from any number of goroutines while other
// goroutines call Epsilon, Snapshot or EffectiveCount.
type Monitor struct {
	space        *core.Space
	outcomes     []string
	outcomeIndex map[string]int
	alpha        float64

	// policy and shards record the construction-time configuration so
	// state serialization (state.go) can verify a saved state matches
	// this monitor and rebuild the engine with the shard count the
	// state was captured under.
	policy Policy
	shards int

	// ticket orders observations globally: every admitted observation
	// draws one ticket, windows and decay are defined in ticket time,
	// and Seen() is the ticket high-water mark. ObserveBatch draws one
	// ticket range per batch, amortizing the shared-counter traffic.
	ticket atomic.Int64
	eng    engine

	// snap and cpt are reusable reporting buffers guarded by repMu, so
	// steady-state Epsilon calls allocate nothing. Ingestion never takes
	// repMu; only readers contend on it.
	repMu sync.Mutex
	snap  *core.Counts
	cpt   *core.CPT

	// inc is the lazily-attached incremental ε engine (incremental.go):
	// Watch checks and EpsilonSubsets drain per-shard dirty-cell logs
	// into a running aggregate instead of re-merging every shard. incMu
	// guards the attachment only; inc.mu guards its state (lock order:
	// incMu → inc.mu → shard mutexes).
	incMu sync.Mutex
	inc   *incEngine
}

// New creates a monitor with the given policy configuration.
func New(space *core.Space, outcomes []string, cfg Config) (*Monitor, error) {
	if space == nil {
		return nil, fmt.Errorf("stream: nil space")
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("stream: need at least two outcomes")
	}
	if cfg.Alpha < 0 {
		return nil, fmt.Errorf("stream: negative alpha %v", cfg.Alpha)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("stream: nil policy")
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	shards, err := resolveShards(cfg.Shards)
	if err != nil {
		return nil, err
	}
	snap, err := core.NewCounts(space, outcomes)
	if err != nil {
		return nil, err
	}
	cpt, err := core.NewCPT(space, outcomes)
	if err != nil {
		return nil, err
	}
	eng, err := cfg.Policy.newEngine(space, outcomes, shards)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(outcomes))
	for i, o := range outcomes {
		idx[o] = i
	}
	return &Monitor{
		space:        space,
		outcomes:     append([]string(nil), outcomes...),
		outcomeIndex: idx,
		alpha:        cfg.Alpha,
		policy:       cfg.Policy,
		shards:       shards,
		eng:          eng,
		snap:         snap,
		cpt:          cpt,
	}, nil
}

// Observe records one decision. It is safe to call concurrently with
// other Observe/ObserveBatch calls and with readers.
func (m *Monitor) Observe(group, outcome int) error {
	if group < 0 || group >= m.space.Size() {
		return fmt.Errorf("stream: group %d out of range", group)
	}
	if outcome < 0 || outcome >= len(m.outcomes) {
		return fmt.Errorf("stream: outcome %d out of range", outcome)
	}
	m.eng.ingestOne(m.ticket.Add(1), group, outcome)
	return nil
}

// ObserveBatch records len(groups) decisions in one call: the hot
// ingest path. The whole batch draws a single ticket range (one shared
// atomic add) and lands in a single shard, amortizing the decay
// multiply and lock traffic across the batch. Indices are validated
// up front; an invalid element rejects the entire batch before any
// state changes. The success path performs no allocations (the dfvet
// hotpath analyzer and the BenchmarkHotPath 0 allocs/op gate both
// enforce this).
//
//df:hotpath
func (m *Monitor) ObserveBatch(groups, outcomes []int) error {
	if err := m.validateBatch(groups, outcomes); err != nil {
		return err
	}
	if len(groups) == 0 {
		return nil
	}
	n := int64(len(groups))
	t0 := m.ticket.Add(n) - n
	m.eng.ingest(t0, groups, outcomes)
	return nil
}

// validateBatch is ObserveBatch's cold prologue, kept out of the
// annotated hot function so its error formatting never costs the
// success path an allocation.
func (m *Monitor) validateBatch(groups, outcomes []int) error {
	if len(groups) != len(outcomes) {
		return fmt.Errorf("stream: ObserveBatch got %d groups vs %d outcomes", len(groups), len(outcomes))
	}
	size := m.space.Size()
	for i := range groups {
		if groups[i] < 0 || groups[i] >= size {
			return fmt.Errorf("stream: batch element %d: group %d out of range", i, groups[i])
		}
		if outcomes[i] < 0 || outcomes[i] >= len(m.outcomes) {
			return fmt.Errorf("stream: batch element %d: outcome %d out of range", i, outcomes[i])
		}
	}
	return nil
}

// ObserveValues records one decision by attribute value names (in
// attribute order) and outcome name, so callers don't hand-encode group
// indices: ObserveValues([]string{"F", "B"}, "deny").
func (m *Monitor) ObserveValues(values []string, outcome string) error {
	g, err := m.space.IndexOfValues(values...)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	y, ok := m.outcomeIndex[outcome]
	if !ok {
		return fmt.Errorf("stream: unknown outcome %q", outcome)
	}
	m.eng.ingestOne(m.ticket.Add(1), g, y)
	return nil
}

// Seen returns the number of observations so far.
func (m *Monitor) Seen() int { return int(m.ticket.Load()) }

// SnapshotInto overwrites dst with the current effective counts, merging
// every shard with one scaled add. Concurrent ingestion during the merge
// may land in shards already visited (a snapshot is a near-point-in-time
// view); once writers are quiescent the snapshot is exact.
func (m *Monitor) SnapshotInto(dst *core.Counts) error {
	if dst == nil {
		return fmt.Errorf("stream: nil snapshot destination")
	}
	return m.eng.snapshotInto(dst, m.ticket.Load())
}

// Snapshot returns the effective counts as a caller-owned core.Counts
// for arbitrary downstream analysis.
func (m *Monitor) Snapshot() (*core.Counts, error) {
	out, err := core.NewCounts(m.space, m.outcomes)
	if err != nil {
		return nil, err
	}
	if err := m.SnapshotInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// EffectiveCount returns the total effective mass: the number of
// observations in the current window for the windowed policies, and the
// decayed total (bounded above by 1/(1−2^(−1/halfLife))) for the
// exponential policy.
func (m *Monitor) EffectiveCount() float64 {
	m.repMu.Lock()
	defer m.repMu.Unlock()
	if err := m.eng.snapshotInto(m.snap, m.ticket.Load()); err != nil {
		return 0 // impossible: the buffer's shape matches by construction
	}
	return m.snap.Total()
}

// Epsilon reports the current ε estimate over the effective counts. It
// reuses internal snapshot and CPT buffers, so repeated reports (e.g.
// one per observation in Watch.ObserveChecked) do not allocate in the
// steady state. Concurrent Epsilon calls serialize on the reporting
// buffers; ingestion is never blocked by reporting.
func (m *Monitor) Epsilon() (core.EpsilonResult, error) {
	m.repMu.Lock()
	defer m.repMu.Unlock()
	if err := m.eng.snapshotInto(m.snap, m.ticket.Load()); err != nil {
		return core.EpsilonResult{}, err
	}
	if err := m.snap.EstimateInto(m.cpt, m.alpha); err != nil {
		return core.EpsilonResult{}, err
	}
	return core.Epsilon(m.cpt)
}

// ensureInc attaches the incremental ε engine, enabling the per-shard
// dirty-cell logs. The engine starts invalid, so its first sync rebuilds
// from the authoritative shard state (covering anything ingested before
// the logs existed).
func (m *Monitor) ensureInc() *incEngine {
	m.incMu.Lock()
	defer m.incMu.Unlock()
	if m.inc == nil {
		m.inc = newIncEngine(m, defaultDirtyLogCap, defaultRebuildEvery)
		m.eng.enableDirty(m.inc.logCap)
	}
	return m.inc
}

// EpsilonSubsets computes the ε ladder over every nonempty subset of the
// protected attributes from incrementally-maintained subset marginals:
// deltas applied to the full aggregate since the last call are folded
// down the lattice (each subset derived from its one-attribute-larger
// parent), so a warm call costs O(cells changed × subsets) instead of
// O(lattice) — report latency independent of the table size. The results
// are ordered like Space.SubsetNames and, for the integer-count window
// policies, bit-identical to core.EpsilonSubsetsCounts over a snapshot
// of the same state. dst, which must match the monitor's space size and
// outcome count, is overwritten with the counts the ladder was measured
// on, taken at the same ticket, so an audit of dst agrees with the
// ladder while observations keep arriving. The exponential policy
// returns ErrIncrementalUnavailable (its smoothed estimator is not
// invariant under decay's uniform rescale); callers fall back to the
// snapshot ladder. A subset with fewer than two supported groups returns
// an error wrapping core.ErrDegenerateSupport.
func (m *Monitor) EpsilonSubsets(dst *core.Counts) ([]core.SubsetEpsilon, error) {
	if dst == nil || dst.Space().Size() != m.space.Size() || dst.NumOutcomes() != len(m.outcomes) {
		return nil, fmt.Errorf("stream: ladder counts destination does not match the monitor's space and outcomes")
	}
	inc := m.ensureInc()
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.exp {
		return nil, ErrIncrementalUnavailable
	}
	if inc.nodes == nil {
		if err := inc.buildNodes(); err != nil {
			return nil, err
		}
		inc.valid = false // nodes must be seeded by a full rebuild
	}
	inc.sync(m.ticket.Load())
	copy(dst.Cells(), inc.full.agg)
	return inc.ladderLocked()
}

// Alert describes a threshold crossing.
type Alert struct {
	// Metric is the key of the fairness metric that breached; empty for
	// the positional ε threshold of NewWatch.
	Metric string
	// Epsilon is the estimate that crossed the threshold — the breaching
	// metric's value when Metric is non-empty.
	Epsilon float64
	// Threshold is the configured limit.
	Threshold float64
	// Witness explains which intersections drove the estimate.
	Witness core.Witness
	// SeenAt is the observation index at which the alert fired.
	SeenAt int
}

// MetricThreshold pairs a fairness metric with its alert limit. A value
// breaches on the metric's unfair side (above for higher-is-worse
// metrics like ε or gaps, below for ratio metrics — e.g. a worst-case
// positive-rate ratio under the 0.8 disparate-impact line).
type MetricThreshold struct {
	Metric    core.Metric
	Threshold float64
}

// Watch wraps a Monitor with an ordered list of metric thresholds;
// ObserveChecked returns a non-nil Alert whenever a metric crosses its
// limit and at least MinEffective mass has accumulated (avoiding
// cold-start noise). The positional ε threshold of NewWatch is entry 0
// of the list, and its alerts carry an empty Metric.
type Watch struct {
	*Monitor
	MinEffective float64
	// thresholds are the armed limits in check order; the first breach
	// wins. primary marks thresholds[0] as the positional ε threshold.
	thresholds []MetricThreshold
	primary    bool
}

// NewWatch builds a threshold watch around a monitor. A positive
// threshold arms ε as the first entry of the watch's threshold list;
// the metric thresholds follow in order. threshold may be 0 (no ε
// entry) only when at least one metric threshold is configured; a NaN
// metric threshold is rejected, since no value could ever breach it.
//
// Building a watch attaches the monitor's incremental engine, and every
// check judges all thresholds against one sync of it: the shards'
// dirty-cell logs are drained instead of re-merged. Under a window
// policy ε and every other core.ExtremaMetric are read from cached
// per-outcome extrema (O(groups the drain touched), then O(outcomes)
// per metric, no CPT); a metric without an extrema form (subgroup
// parity), and every metric under exponential decay, is evaluated on
// one CPT built per check from the running aggregate (O(cells), never
// O(shards × buckets × cells)).
func NewWatch(m *Monitor, threshold, minEffective float64, metrics ...MetricThreshold) (*Watch, error) {
	if m == nil {
		return nil, fmt.Errorf("stream: nil monitor")
	}
	if !(threshold > 0) && (len(metrics) == 0 || threshold != 0) {
		return nil, fmt.Errorf("stream: threshold must be positive, got %v", threshold)
	}
	if minEffective < 0 {
		return nil, fmt.Errorf("stream: negative minEffective")
	}
	w := &Watch{Monitor: m, MinEffective: minEffective, primary: threshold > 0}
	if w.primary {
		w.thresholds = append(w.thresholds, MetricThreshold{Metric: core.DFEpsilon, Threshold: threshold})
	}
	for _, mt := range metrics {
		if mt.Metric == nil {
			return nil, fmt.Errorf("stream: nil metric in threshold")
		}
		if math.IsNaN(mt.Threshold) {
			return nil, fmt.Errorf("stream: metric %s: threshold is NaN", mt.Metric.Key())
		}
		if err := mt.Metric.Applicable(m.space, m.outcomes); err != nil {
			return nil, fmt.Errorf("stream: metric %s not applicable: %w", mt.Metric.Key(), err)
		}
		w.thresholds = append(w.thresholds, mt)
	}
	m.ensureInc()
	return w, nil
}

// ObserveChecked records a decision and evaluates the thresholds.
func (w *Watch) ObserveChecked(group, outcome int) (*Alert, error) {
	if err := w.Observe(group, outcome); err != nil {
		return nil, err
	}
	alert, _, err := w.check()
	return alert, err
}

// ObserveBatchChecked records a batch of decisions and evaluates the
// thresholds once after the batch — the per-report cost is amortized
// over the whole batch, matching the service observe path. Alongside the
// possible alert it returns the effective mass measured by the same
// check, so service responses don't pay a shard merge to report it.
func (w *Watch) ObserveBatchChecked(groups, outcomes []int) (*Alert, float64, error) {
	if err := w.ObserveBatch(groups, outcomes); err != nil {
		return nil, 0, err
	}
	return w.check()
}

// Check evaluates the thresholds against the current state without
// recording anything: the on-demand form of the per-batch check, for
// services that need the breach state outside an observe call (e.g.
// when deciding whether to install a repair plan). It returns the alert
// (nil when under threshold or below MinEffective) and the effective
// mass of the state it measured.
func (w *Watch) Check() (*Alert, float64, error) { return w.check() }

// check syncs the incremental aggregate once at ticket now — draining
// the cells touched since the last check and applying evictions or
// decay — and judges every threshold against that state. The
// MinEffective gate runs on the incrementally-maintained mass before any
// estimator work, so a cold-start ObserveChecked loop pays only the tiny
// drain per observation. For the integer-count window policies the
// result is bit-identical to CheckFull; the property suite pins that
// equivalence.
func (w *Watch) check() (*Alert, float64, error) {
	inc := w.ensureInc()
	now := w.ticket.Load()
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.sync(now)
	effective := inc.effectiveAt(now)
	if effective < w.MinEffective {
		return nil, effective, nil
	}
	alert, err := w.judge(now, func(m core.Metric) (core.MetricResult, error) {
		return inc.evalLocked(m, now)
	})
	return alert, effective, err
}

// CheckFull evaluates the thresholds the pre-incremental way: one full
// shard merge into the reporting snapshot, then a from-scratch estimator
// conversion and metric evaluation. It is retained as the authoritative
// recompute — the oracle the incremental property tests compare against
// and the baseline BenchmarkWatchObserveBatchChecked measures the
// incremental path's speedup over. Semantics match Check exactly.
func (w *Watch) CheckFull() (*Alert, float64, error) {
	w.repMu.Lock()
	defer w.repMu.Unlock()
	now := w.ticket.Load()
	if err := w.eng.snapshotInto(w.snap, now); err != nil {
		return nil, 0, fmt.Errorf("stream: threshold check: %w", err)
	}
	effective := w.snap.Total()
	if effective < w.MinEffective {
		return nil, effective, nil
	}
	if err := w.snap.EstimateInto(w.cpt, w.alpha); err != nil {
		return nil, effective, fmt.Errorf("stream: threshold check: %w", err)
	}
	alert, err := w.judge(now, func(m core.Metric) (core.MetricResult, error) {
		return m.Eval(w.cpt)
	})
	return alert, effective, err
}

// judge measures each threshold's metric with eval, in order, and
// returns the first breach as an alert seen at ticket now. A table with
// fewer than two supported groups has no pairs to compare under any
// metric: no alert, not an error. Any other failure reaches the caller.
func (w *Watch) judge(now int64, eval func(core.Metric) (core.MetricResult, error)) (*Alert, error) {
	for i, mt := range w.thresholds {
		res, err := eval(mt.Metric)
		if err != nil {
			if errors.Is(err, core.ErrDegenerateSupport) {
				return nil, nil
			}
			return nil, fmt.Errorf("stream: threshold check %s: %w", mt.Metric.Key(), err)
		}
		if core.MetricBreached(mt.Metric, res.Value, mt.Threshold) {
			a := &Alert{Epsilon: res.Value, Threshold: mt.Threshold, Witness: res.Witness, SeenAt: int(now)}
			if i > 0 || !w.primary {
				a.Metric = mt.Metric.Key()
			}
			return a, nil
		}
	}
	return nil, nil
}
