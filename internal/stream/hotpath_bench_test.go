package stream

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkHotPathObserveBatch asserts the //df:hotpath contract on
// Monitor.ObserveBatch at the benchmark layer: the CI bench smoke
// parses every BenchmarkHotPath* line and fails unless it reports
// 0 allocs/op (scripts/alloc_gate.sh).
// BenchmarkHotPathIncrementalCheck asserts the //df:hotpath contract on
// the incremental delta-apply path — dirty-log record, drain,
// window-eviction deltas and the cached-extrema ε refresh — by running
// checked batched ingest in steady state: scripts/alloc_gate.sh fails
// unless it reports 0 allocs/op.
func BenchmarkHotPathIncrementalCheck(b *testing.B) {
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
	w, err := NewWatch(m, 50, 1)
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
