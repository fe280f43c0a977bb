// Package par is the replicate-parallel execution substrate shared by the
// uncertainty layers (bootstrap resampling, posterior sampling). It runs n
// independent tasks on a small worker pool where each worker owns private
// scratch state (counts/CPT buffers, a re-seedable RNG), so the per-task
// inner loops are allocation-free and results land in caller-indexed slots
// — making output bit-identical regardless of GOMAXPROCS or scheduling.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: 0 (or negative) means one
// worker per available CPU, and the result never exceeds n (no idle
// goroutines for small jobs).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// run is the worker pool behind DoCtx: w = Workers(workers, n)
// goroutines (inline when w is 1), each calling newState once and
// reusing the returned scratch across all tasks it executes, so
// per-task allocations are amortized to zero. Workers claim indices
// from one atomic cursor — which balances uneven task costs, and gives
// every worker its own indices in increasing order — until the cursor
// passes n or stop is closed. stop is checked before every claim, so
// after it closes each worker runs at most the one task it had already
// claimed. task receives the worker's number in [0, w).
func run[S any](workers, n int, stop <-chan struct{}, newState func() S, task func(worker int, state S, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	if w == 1 {
		s := newState()
		for i := 0; i < n && !stopped(); i++ {
			task(0, s, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			s := newState()
			for !stopped() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(k, s, i)
			}
		}()
	}
	wg.Wait()
}

// DoCtx runs task(state, i) for every i in [0, n) on `workers`
// goroutines (0 = one per CPU), each with private scratch from newState
// (see run). Determinism is the task's job: write results only to slot
// i and derive any randomness from i, never from the executing worker
// or claim order.
//
// Tasks can fail, and cancellation is cooperative: workers stop
// claiming tasks as soon as ctx is done, and the call
// returns ctx.Err(). Cancellation is checked between tasks, not inside
// them, so at most one task per worker starts after a cancel and the
// latency of a cancel is bounded by one task's duration per worker.
// When ctx is never canceled, every task runs regardless of other
// tasks' failures (slots stay deterministic) and the error of the
// lowest-indexed failed task is returned — the same error no matter how
// tasks were scheduled — or nil if all succeeded. Failures are kept per
// worker, not per task: each worker claims increasing indices, so its
// first failure is its lowest-indexed one, and the lowest of those is
// the lowest overall.
//
// ctx must be non-nil: this package never fabricates a root context
// (the ctxflow invariant), so callers without a deadline pass
// context.Background() from main or a test.
func DoCtx[S any](ctx context.Context, workers, n int, newState func() S, task func(state S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	type failure struct {
		i   int
		err error
	}
	first := make([]failure, Workers(workers, n))
	run(workers, n, ctx.Done(), newState, func(k int, s S, i int) {
		if err := task(s, i); err != nil && first[k].err == nil {
			first[k] = failure{i, err}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	var lowest failure
	for _, f := range first {
		if f.err != nil && (lowest.err == nil || f.i < lowest.i) {
			lowest = f
		}
	}
	return lowest.err
}
