package loadgen

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestBucketInvariants checks the two properties quantile correctness
// rests on: a value's bucket upper bound never understates it, and the
// relative overshoot is bounded by the sub-bucket resolution.
func TestBucketInvariants(t *testing.T) {
	r := rng.New(7)
	check := func(v int64) {
		t.Helper()
		idx := bucketIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		u := bucketUpper(idx)
		if u < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < value", v, u)
		}
		if v >= histSub {
			if rel := float64(u-v) / float64(v); rel > 1.0/histSub {
				t.Fatalf("value %d: upper %d overshoots by %.3f > %.3f", v, u, rel, 1.0/histSub)
			}
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 10000; i++ {
		check(int64(r.Uint64() >> uint(1+r.Intn(40))))
	}
	check(math.MaxInt64)
}

// TestBucketMonotone: bucket index is non-decreasing in the value, so
// the cumulative walk in Quantile visits values in order.
func TestBucketMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 17 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 1..1000 µs in ns; exact quantiles are k·1000 ns.
	for i := 1; i <= 1000; i++ {
		h.Record(int64(i) * 1000)
	}
	if h.n != 1000 {
		t.Fatalf("count = %d", h.n)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500_000}, {0.99, 990_000}, {0.999, 999_000}, {1.0, 1_000_000}} {
		got := h.Quantile(tc.q)
		if got < tc.want || float64(got-tc.want) > float64(tc.want)/histSub+1 {
			t.Errorf("Quantile(%g) = %d, want within bucket of %d", tc.q, got, tc.want)
		}
	}
	if h.Max() != 1_000_000 {
		t.Errorf("max = %d", h.Max())
	}
	if got, want := h.Mean(), 500_500.0; math.Abs(got-want) > 1 {
		t.Errorf("mean = %g, want %g", got, want)
	}
	if h.Quantile(1.0) > h.Max() {
		t.Errorf("quantile exceeds recorded max: %d > %d", h.Quantile(1.0), h.Max())
	}
}

func TestHistEmptyAndClamp(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.n != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(-5) // clamps, never panics
	if h.n != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative record should clamp to 0: count=%d q50=%d", h.n, h.Quantile(0.5))
	}
}

// TestHistMerge: merging shards is equivalent to recording everything
// into one histogram — the property that makes per-worker shards safe.
func TestHistMerge(t *testing.T) {
	var whole, a, b Hist
	r := rng.New(3)
	for i := 0; i < 5000; i++ {
		v := int64(r.Intn(10_000_000))
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.n != whole.n || a.Max() != whole.Max() || a.Mean() != whole.Mean() {
		t.Fatal("merged summary diverges from whole")
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("Quantile(%g): merged %d != whole %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}
