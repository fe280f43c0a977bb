package loadgen

import "math/bits"

// Hist is a log-bucketed latency histogram: fixed-size, mergeable, and
// lock-free to read after recording stops. Values (nanoseconds) below
// 2^histPrecision land in exact linear buckets; above that each octave
// is split into 2^histPrecision sub-buckets, bounding the relative
// quantile error at 2^-histPrecision (6.25%) — more than enough to tell
// a p999 regression from noise, at 1/30th the footprint of exact
// reservoirs. Workers each own a Hist shard and the collector merges
// them, so the record path never contends on a shared structure.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    int64
}

const (
	// histPrecision is the sub-bucket resolution exponent: 16 sub-buckets
	// per octave.
	histPrecision = 4
	histSub       = 1 << histPrecision
	// histBuckets covers values up to 2^63-1 ns (centuries): the linear
	// range [0, 16) plus (63-4) log octaves of 16 sub-buckets each.
	histBuckets = histSub + (63-histPrecision)*histSub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	h := 63 - bits.LeadingZeros64(uint64(v)) // highest set bit, ≥ histPrecision
	mantissa := int(v >> uint(h-histPrecision))
	return (h-histPrecision)*histSub + mantissa
}

// bucketUpper returns the inclusive upper bound of bucket i, the value
// Quantile reports for samples that landed there.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	h := i/histSub + histPrecision - 1
	mantissa := int64(i%histSub + histSub)
	return (mantissa+1)<<uint(h-histPrecision) - 1
}

// Record adds one latency observation. Negative values clamp to zero
// (a clock stepping backwards must not corrupt the index math).
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)]++
	h.n++
	h.sum += uint64(ns)
	if ns > h.max {
		h.max = ns
	}
}

// Merge folds another histogram into the receiver.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Max returns the largest recorded value in nanoseconds.
func (h *Hist) Max() int64 { return h.max }

// Mean returns the arithmetic mean in nanoseconds (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the value at or below which a fraction q of the
// recorded observations fall, as the containing bucket's upper bound
// (so the estimate never understates the true quantile by more than
// the bucket's width). q outside [0,1] clamps; an empty histogram
// reports 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation in sorted
	// order; q=0 means the first, q=1 the last.
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen > rank {
			u := bucketUpper(i)
			if u > h.max {
				// The bucket's bound can overshoot the true maximum;
				// never report a latency nobody measured.
				u = h.max
			}
			return u
		}
	}
	return h.max
}
