package loadgen

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a virtual monotonic clock: Now reads the counter, Sleep
// advances it by the requested duration. Single-worker tests get exact,
// deterministic scheduling out of it.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() int64              { return c.ns.Load() }
func (c *fakeClock) Sleep(d time.Duration)   { c.ns.Add(int64(d)) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// countDoer records calls and returns a fixed status after an optional
// virtual service time.
type countDoer struct {
	clock   *fakeClock
	service time.Duration
	status  int

	mu    sync.Mutex
	calls int
	ops   [numOps]int
}

func (d *countDoer) Do(req *Request, body []byte, binary bool) (int, bool, error) {
	if d.service > 0 {
		d.clock.advance(d.service)
	}
	d.mu.Lock()
	d.calls++
	d.ops[req.Op]++
	d.mu.Unlock()
	status := d.status
	if status == 0 {
		status = http.StatusOK
	}
	return status, status == http.StatusServiceUnavailable, nil
}

func testRunConfig(t *testing.T, clock *fakeClock, doer Doer) RunConfig {
	return RunConfig{
		Workload: testConfig(t),
		Requests: 200,
		Workers:  1,
		Clock:    clock,
		Doer:     doer,
	}
}

// TestRunClosedLoop: Rate=0 fires every request sequentially and the
// summary accounts for each one, with observations counted on 2xx.
func TestRunClosedLoop(t *testing.T) {
	clock := &fakeClock{}
	doer := &countDoer{clock: clock, service: time.Millisecond}
	cfg := testRunConfig(t, clock, doer)
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRequests != 200 || doer.calls != 200 {
		t.Fatalf("requests = %d, calls = %d", sum.TotalRequests, doer.calls)
	}
	var reqs, obs uint64
	for op := Op(0); op < numOps; op++ {
		st := sum.Ops[op]
		if int(st.Requests) != doer.ops[op] {
			t.Errorf("%v: summary %d != doer %d", op, st.Requests, doer.ops[op])
		}
		reqs += st.Requests
		obs += st.Observations
		if st.Requests > 0 && st.Hist.n != st.Requests {
			t.Errorf("%v: hist count %d != requests %d", op, st.Hist.n, st.Requests)
		}
	}
	if reqs != 200 {
		t.Fatalf("per-op requests sum to %d", reqs)
	}
	wantObs := uint64(doer.ops[OpObserve]+doer.ops[OpDecide]) * uint64(cfg.Workload.BatchSize)
	if obs != wantObs {
		t.Errorf("observations = %d, want %d", obs, wantObs)
	}
	// Every request took 1ms of virtual service time.
	if q := sum.Ops[OpObserve].Hist.Quantile(0.5); q < int64(time.Millisecond) {
		t.Errorf("median service time %d < 1ms", q)
	}
	if sum.EndNs-sum.StartNs != 200*int64(time.Millisecond) {
		t.Errorf("span = %dns, want 200ms", sum.EndNs-sum.StartNs)
	}
}

// TestRunOpenLoopSchedule: with Rate set, request k fires at
// start + k/Rate on the virtual clock regardless of service time, and
// latency is charged from the scheduled instant.
func TestRunOpenLoopSchedule(t *testing.T) {
	clock := &fakeClock{}
	doer := &countDoer{clock: clock}
	cfg := testRunConfig(t, clock, doer)
	cfg.Requests = 100
	cfg.Rate = 1000 // 1ms apart
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRequests != 100 {
		t.Fatalf("requests = %d", sum.TotalRequests)
	}
	// The single worker sleeps to each schedule point: the clock must
	// have advanced to the last request's schedule, 99ms.
	if got := clock.Now(); got != 99*int64(time.Millisecond) {
		t.Errorf("clock = %dns, want 99ms", got)
	}
	if sum.ScheduleLateMax != 0 {
		t.Errorf("lateMax = %d on an idle virtual clock", sum.ScheduleLateMax)
	}
}

// TestRunOpenLoopNoThrottle is the open-loop property: a Doer that
// blocks until released does not stop the scheduler from firing every
// request.
func TestRunOpenLoopNoThrottle(t *testing.T) {
	clock := &fakeClock{}
	release := make(chan struct{})
	var fired atomic.Int64
	doer := doerFunc(func(req *Request, body []byte, binary bool) (int, bool, error) {
		fired.Add(1)
		<-release
		return http.StatusOK, false, nil
	})
	cfg := testRunConfig(t, clock, doer)
	cfg.Requests = 50
	cfg.Rate = 1e6

	done := make(chan *Summary, 1)
	go func() {
		sum, err := Run(context.Background(), cfg)
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()
	// All 50 requests must fire while zero responses have completed: a
	// closed-loop runner would deadlock after the first.
	deadline := time.After(10 * time.Second)
	for fired.Load() < 50 {
		select {
		case <-deadline:
			t.Fatalf("only %d/50 requests fired against a blocked target", fired.Load())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	sum := <-done
	if sum.TotalRequests != 50 {
		t.Fatalf("recorded %d/50", sum.TotalRequests)
	}
}

// TestRunResultsAndErrors: OnResult sees every outcome; error and 503
// outcomes land in the right counters.
func TestRunResultsAndErrors(t *testing.T) {
	clock := &fakeClock{}
	boom := errors.New("boom")
	var n atomic.Int64
	doer := doerFunc(func(req *Request, body []byte, binary bool) (int, bool, error) {
		switch n.Add(1) % 3 {
		case 0:
			return 0, false, boom
		case 1:
			return http.StatusServiceUnavailable, true, nil
		}
		return http.StatusOK, false, nil
	})
	cfg := testRunConfig(t, clock, doer)
	cfg.Requests = 99
	var results []Result
	var mu sync.Mutex
	cfg.OnResult = func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 99 {
		t.Fatalf("OnResult saw %d/99", len(results))
	}
	var errs, s503 uint64
	for op := Op(0); op < numOps; op++ {
		errs += sum.Ops[op].Errors
		s503 += sum.Ops[op].Status503
	}
	if errs != 33 || s503 != 33 {
		t.Errorf("errors = %d, 503s = %d, want 33 each", errs, s503)
	}
	for _, r := range results {
		if r.Status == http.StatusServiceUnavailable && !r.RetryAfter {
			t.Fatal("503 result lost its Retry-After flag")
		}
	}
}

// TestRunCancel: cancelling the context stops scheduling and surfaces
// the cancellation.
func TestRunCancel(t *testing.T) {
	clock := &fakeClock{}
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	doer := doerFunc(func(req *Request, body []byte, binary bool) (int, bool, error) {
		if n.Add(1) == 10 {
			cancel()
		}
		return http.StatusOK, false, nil
	})
	cfg := testRunConfig(t, clock, doer)
	cfg.Requests = 100000
	sum, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum.TotalRequests >= 100000 || sum.TotalRequests < 10 {
		t.Fatalf("cancelled run recorded %d requests", sum.TotalRequests)
	}
}

// TestRunMultiWorkerDeterministicTotals: totals are exact regardless of
// worker count, and per-worker substreams keep the workload identical
// across repeated runs.
func TestRunMultiWorkerDeterministicTotals(t *testing.T) {
	totals := func() [numOps]uint64 {
		clock := &fakeClock{}
		doer := &countDoer{clock: clock}
		cfg := testRunConfig(t, clock, doer)
		cfg.Workers = 4
		cfg.Requests = 400
		sum, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sum.TotalRequests != 400 {
			t.Fatalf("requests = %d", sum.TotalRequests)
		}
		var out [numOps]uint64
		for op := Op(0); op < numOps; op++ {
			out[op] = sum.Ops[op].Requests
		}
		return out
	}
	if totals() != totals() {
		t.Fatal("same seed produced different per-op totals")
	}
}

func TestRunValidation(t *testing.T) {
	clock := &fakeClock{}
	doer := &countDoer{clock: clock}
	cases := []func(*RunConfig){
		func(c *RunConfig) { c.Requests = 0 },
		func(c *RunConfig) { c.Workers = 0 },
		func(c *RunConfig) { c.Rate = -1 },
		func(c *RunConfig) { c.Clock = nil },
		func(c *RunConfig) { c.Doer = nil },
		func(c *RunConfig) { c.Workload.Monitors = 0 },
	}
	for i, mutate := range cases {
		cfg := testRunConfig(t, clock, doer)
		mutate(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

type doerFunc func(req *Request, body []byte, binary bool) (int, bool, error)

func (f doerFunc) Do(req *Request, body []byte, binary bool) (int, bool, error) {
	return f(req, body, binary)
}
