package stream

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
)

// BenchmarkHotPathIncrementalCheck asserts the //df:hotpath contract on
// the incremental delta-apply path — dirty-log record, drain,
// window-eviction deltas and the cached-extrema ε refresh — by running
// checked batched ingest in steady state: scripts/alloc_gate.sh fails
// unless it reports 0 allocs/op.
func BenchmarkHotPathIncrementalCheck(b *testing.B) {
	benchCheckedIngest(b)
}

// BenchmarkHotPathMetricCheck is BenchmarkHotPathIncrementalCheck with
// worst_ratio and alpha_if armed beside ε, at limits the stream never
// crosses: it asserts the //df:hotpath contract on the extrema-form
// metric evaluation (incEngine.evalLocked and each metric's
// EvalExtrema), which scripts/alloc_gate.sh requires at 0 allocs/op.
func BenchmarkHotPathMetricCheck(b *testing.B) {
	benchCheckedIngest(b,
		MetricThreshold{Metric: fairmetrics.WorstRatio{}, Threshold: 0},
		MetricThreshold{Metric: fairmetrics.AlphaIntersectional{Alpha: 0.5}, Threshold: 1},
	)
}

// benchCheckedIngest times steady-state checked batched ingest on a
// small sliding-window watch with the given metric thresholds armed
// beside an ε limit the stream never reaches.
func benchCheckedIngest(b *testing.B, metrics ...MetricThreshold) {
	space := core.MustSpace(
		core.Attr{Name: "g", Values: []string{"a", "b", "c", "d"}},
		core.Attr{Name: "h", Values: []string{"0", "1"}},
	)
	m, err := New(space, []string{"no", "yes"}, Config{
		Policy: Sliding{Window: 4096, Buckets: 4},
		Alpha:  0.5,
		Shards: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWatch(m, 50, 1, metrics...)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	groups := make([]int, batch)
	outcomes := make([]int, batch)
	for i := range groups {
		groups[i] = i % space.Size()
		outcomes[i] = (i / 3) % 2
	}
	// Warm once so lazy attachment is outside the measurement.
	if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathObserveBatch asserts the //df:hotpath contract on
// Monitor.ObserveBatch at the benchmark layer: the CI bench smoke
// parses every BenchmarkHotPath* line and fails unless it reports
// 0 allocs/op (scripts/alloc_gate.sh).
func BenchmarkHotPathObserveBatch(b *testing.B) {
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b", "c", "d"}})
	m, err := New(space, []string{"no", "yes"}, Config{Policy: Exponential{HalfLife: 10000}})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	groups := make([]int, batch)
	outcomes := make([]int, batch)
	for i := range groups {
		groups[i] = i % space.Size()
		outcomes[i] = (i / 3) % 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ObserveBatch(groups, outcomes); err != nil {
			b.Fatal(err)
		}
	}
}
