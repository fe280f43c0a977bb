package stream

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/rng"
)

// LockedMonitor is the retained pre-sharding implementation: one decayed
// strided table behind a single mutex. It exists as the comparison
// baseline for BenchmarkMonitorObserveParallel (the role
// EpsilonBootstrapSerialAlias plays for the resampling engine) and as
// the sequential reference the sharded Monitor's equivalence tests check
// against. New code should use Monitor.
type LockedMonitor struct {
	mu       sync.Mutex
	space    *core.Space
	outcomes []string
	// counts are stored pre-scaled in one group-major strided slice:
	// cell values are multiplied by the running weight so an observation
	// is a single add; snapshots divide by weight.
	counts []float64
	weight float64
	decay  float64
	seen   int
	alpha  float64
	snap   *core.Counts
	cpt    *core.CPT
}

// NewLocked creates a mutex-guarded exponentially-decayed monitor with
// the same semantics as New with an Exponential policy.
func NewLocked(space *core.Space, outcomes []string, halfLife float64, alpha float64) (*LockedMonitor, error) {
	if space == nil {
		return nil, fmt.Errorf("stream: nil space")
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("stream: need at least two outcomes")
	}
	if !(halfLife > 0) || math.IsInf(halfLife, 0) {
		return nil, fmt.Errorf("stream: half-life must be positive and finite, got %v", halfLife)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("stream: negative alpha %v", alpha)
	}
	snap, err := core.NewCounts(space, outcomes)
	if err != nil {
		return nil, err
	}
	cpt, err := core.NewCPT(space, outcomes)
	if err != nil {
		return nil, err
	}
	return &LockedMonitor{
		space:    space,
		outcomes: append([]string(nil), outcomes...),
		counts:   make([]float64, space.Size()*len(outcomes)),
		weight:   1,
		decay:    math.Exp2(-1 / halfLife),
		alpha:    alpha,
		snap:     snap,
		cpt:      cpt,
	}, nil
}

// Space returns the protected-attribute space.
func (m *LockedMonitor) Space() *core.Space { return m.space }

// Outcomes returns a copy of the outcome labels.
func (m *LockedMonitor) Outcomes() []string { return append([]string(nil), m.outcomes...) }

// Observe records one decision under the global lock.
func (m *LockedMonitor) Observe(group, outcome int) error {
	if group < 0 || group >= m.space.Size() {
		return fmt.Errorf("stream: group %d out of range", group)
	}
	if outcome < 0 || outcome >= len(m.outcomes) {
		return fmt.Errorf("stream: outcome %d out of range", outcome)
	}
	m.mu.Lock()
	m.observeLocked(group, outcome)
	m.mu.Unlock()
	return nil
}

// ObserveBatch records a batch of decisions under one lock acquisition.
func (m *LockedMonitor) ObserveBatch(groups, outcomes []int) error {
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
	m.mu.Lock()
	for i := range groups {
		m.observeLocked(groups[i], outcomes[i])
	}
	m.mu.Unlock()
	return nil
}

func (m *LockedMonitor) observeLocked(group, outcome int) {
	m.weight /= m.decay
	m.counts[group*len(m.outcomes)+outcome] += m.weight
	m.seen++
	if m.weight > 1e12 {
		inv := 1 / m.weight
		for i := range m.counts {
			m.counts[i] *= inv
		}
		m.weight = 1
	}
}

// Seen returns the number of observations so far.
func (m *LockedMonitor) Seen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen
}

// EffectiveCount returns the decayed total mass.
func (m *LockedMonitor) EffectiveCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	for _, v := range m.counts {
		sum += v
	}
	return sum / m.weight
}

// SnapshotInto overwrites dst with the decayed counts.
func (m *LockedMonitor) SnapshotInto(dst *core.Counts) error {
	if dst == nil {
		return fmt.Errorf("stream: nil snapshot destination")
	}
	cells := dst.Cells()
	if len(cells) != len(m.counts) {
		return fmt.Errorf("stream: snapshot destination shape mismatch")
	}
	m.mu.Lock()
	inv := 1 / m.weight
	for i, v := range m.counts {
		cells[i] = v * inv
	}
	m.mu.Unlock()
	return nil
}

// Snapshot returns the decayed counts as a caller-owned core.Counts.
func (m *LockedMonitor) Snapshot() (*core.Counts, error) {
	out, err := core.NewCounts(m.space, m.outcomes)
	if err != nil {
		return nil, err
	}
	if err := m.SnapshotInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Epsilon reports the current decayed ε estimate using the monitor's
// reusable buffers.
func (m *LockedMonitor) Epsilon() (core.EpsilonResult, error) {
	if err := m.SnapshotInto(m.snap); err != nil {
		return core.EpsilonResult{}, err
	}
	if err := m.snap.EstimateInto(m.cpt, m.alpha); err != nil {
		return core.EpsilonResult{}, err
	}
	return core.Epsilon(m.cpt)
}

// BenchmarkMonitorObserveParallel is the headline streaming benchmark:
// batched ingest (64 observations per batch, the dfserve observe-path
// shape) through the sharded engine versus the retained single-mutex
// LockedMonitor baseline, serially and with one ingesting goroutine per
// GOMAXPROCS. Each iteration is one 64-observation batch; the sharded
// engine's parallel ns/op should approach its serial ns/op divided by
// the core count, while the locked baseline serializes.
// scripts/bench_stream.sh records all four as BENCH_stream.json.
func BenchmarkMonitorObserveParallel(b *testing.B) {
	space := census.Space()
	const batch = 64
	const pool = 1 << 16
	r := rng.New(9)
	groups := make([]int, pool)
	outcomes := make([]int, pool)
	for i := range groups {
		groups[i] = r.Intn(space.Size())
		outcomes[i] = r.Intn(2)
	}
	offsets := pool/batch - 1

	engines := []struct {
		name string
		make func() (func(g, y []int) error, error)
	}{
		{"sharded", func() (func(g, y []int) error, error) {
			m, err := New(space, census.IncomeValues, Config{Policy: Exponential{HalfLife: 5000}})
			if err != nil {
				return nil, err
			}
			return m.ObserveBatch, nil
		}},
		{"locked", func() (func(g, y []int) error, error) {
			m, err := NewLocked(space, census.IncomeValues, 5000, 0)
			if err != nil {
				return nil, err
			}
			return m.ObserveBatch, nil
		}},
	}
	for _, eng := range engines {
		b.Run(eng.name+"-serial", func(b *testing.B) {
			observe, err := eng.make()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i % offsets) * batch
				if err := observe(groups[off:off+batch], outcomes[off:off+batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(eng.name+"-parallel", func(b *testing.B) {
			observe, err := eng.make()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					off := (i % offsets) * batch
					i++
					if err := observe(groups[off:off+batch], outcomes[off:off+batch]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
