package dist

import (
	"runtime"
	"sync"
)

// parallelThreshold is the input size below which the worker pool costs
// more than it saves and BatchPDF stays on one goroutine.
const parallelThreshold = 1 << 14

// BatchPDF evaluates d.PDF at every point of xs into dst and returns
// dst. When dst is nil a new slice is allocated; otherwise its length
// must equal len(xs). Large inputs are split across a worker pool sized
// to GOMAXPROCS; results are identical to the scalar loop either way.
func BatchPDF(d Dist, xs, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(xs))
	}
	if len(dst) != len(xs) {
		panic("dist: BatchPDF dst length does not match xs")
	}
	parallelChunks(len(xs), func(lo, hi int) {
		d.batchPDF(xs[lo:hi], dst[lo:hi])
	})
	return dst
}

// parallelChunks runs fn over [0, n) split into contiguous chunks, one
// goroutine per chunk, when the input is large enough and more than one
// CPU is available; otherwise it runs fn(0, n) inline.
func parallelChunks(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < parallelThreshold || workers < 2 {
		fn(0, n)
		return
	}
	if max := (n + parallelThreshold/2 - 1) / (parallelThreshold / 2); workers > max {
		workers = max
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Grid returns n evenly spaced points from lo to hi inclusive. n must be
// at least 2 (the two endpoints).
func Grid(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("dist: Grid needs at least 2 points")
	}
	xs := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	xs[n-1] = hi // exact endpoint regardless of rounding
	return xs
}

// DensityGrid evaluates the density of d on an n-point grid over
// [lo, hi] via the batched path, returning the grid and the densities.
// It is the building block for density plots (experiments Figure 2).
func DensityGrid(d Dist, lo, hi float64, n int) (xs, pdf []float64) {
	xs = Grid(lo, hi, n)
	return xs, BatchPDF(d, xs, nil)
}
