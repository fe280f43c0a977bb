package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Clock abstracts monotonic time for the runner. Injected rather than
// read from the wall so (a) the scheduler is unit-testable against a
// virtual clock and (b) the synthesis path provably never touches
// wall-clock state (the dfvet determinism analyzer rejects time.Now in
// this package). Now returns monotonic nanoseconds from an arbitrary
// epoch.
type Clock interface {
	Now() int64
	Sleep(d time.Duration)
}

// Result is the outcome of one request, delivered to the optional
// OnResult hook (e2e tests use it to assert per-request behavior that
// the aggregate summary flattens away).
type Result struct {
	Op     Op
	Status int // 0 when Err != nil
	Err    error
	// RetryAfter reports whether a 503 carried a Retry-After header —
	// the drain gate's contract.
	RetryAfter bool
	// LatencyNs measures from the request's scheduled send time, not
	// its actual send time, so queueing delay when the target falls
	// behind is charged to the target (no coordinated omission).
	LatencyNs int64
}

// Doer issues one synthesized request and reports its outcome. The
// production implementation is HTTPDoer; tests substitute stubs.
type Doer interface {
	Do(req *Request, body []byte, binary bool) (status int, retryAfter bool, err error)
}

// RunConfig configures one load pass.
type RunConfig struct {
	Workload WorkloadConfig
	// Binary selects the application/x-df-batch encoding for
	// observe/decide bodies; false = JSON.
	Binary bool
	// Rate is the total offered load in requests/second across all
	// workers; 0 selects closed-loop saturation (each worker fires its
	// next request as soon as the previous one returns — the
	// max-throughput measurement mode).
	Rate float64
	// Requests is the total request count for the pass.
	Requests int
	// Workers is the number of scheduling workers (one connection's
	// worth of synthesis each); every worker owns substream
	// (Workload.Seed, worker index).
	Workers int
	Clock   Clock
	Doer    Doer
	// OnResult, when non-nil, receives every request outcome. Called
	// concurrently from in-flight request goroutines.
	OnResult func(Result)
}

func (c *RunConfig) validate() error {
	if err := c.Workload.validate(); err != nil {
		return err
	}
	if c.Requests < 1 {
		return fmt.Errorf("loadgen: total requests must be positive, got %d", c.Requests)
	}
	if c.Workers < 1 {
		return fmt.Errorf("loadgen: workers must be positive, got %d", c.Workers)
	}
	if c.Rate < 0 {
		return fmt.Errorf("loadgen: rate must be non-negative, got %g", c.Rate)
	}
	if c.Clock == nil {
		return fmt.Errorf("loadgen: a Clock is required")
	}
	if c.Doer == nil {
		return fmt.Errorf("loadgen: a Doer is required")
	}
	return nil
}

// OpStats aggregates one endpoint's outcomes across a pass.
type OpStats struct {
	Op           Op
	Requests     uint64
	Errors       uint64
	Status503    uint64
	Observations uint64 // batch observations acknowledged (2xx only)
	Hist         Hist
}

// Summary is one pass's aggregate: per-endpoint stats plus the pass's
// measured span in clock nanoseconds.
type Summary struct {
	Ops             [numOps]OpStats
	StartNs, EndNs  int64
	TotalRequests   uint64
	ScheduleLateMax int64 // worst lateness of a scheduled send, ns
}

// workerState is one worker's private half of the run: synthesis,
// encode buffer reuse for the sequential (closed-loop) mode, and a
// locked recorder shard merged after the pass.
type workerState struct {
	synth *Synth

	mu      sync.Mutex
	ops     [numOps]OpStats
	lateMax int64
}

func (w *workerState) record(res Result, observed int) {
	w.mu.Lock()
	st := &w.ops[res.Op]
	st.Requests++
	switch {
	case res.Err != nil:
		st.Errors++
	case res.Status == http.StatusServiceUnavailable:
		st.Status503++
	case res.Status >= 400:
		st.Errors++
	default:
		st.Observations += uint64(observed)
	}
	st.Hist.Record(res.LatencyNs)
	w.mu.Unlock()
}

// Run executes one load pass and returns its aggregate summary. With a
// positive Rate the scheduler is open-loop: request k (globally) is
// scheduled at start + k/Rate seconds, workers fire at their scheduled
// instants regardless of in-flight responses, and latency is measured
// from the scheduled time — a target that stalls accumulates queueing
// delay in its own histogram instead of silently throttling the load.
// ctx cancellation stops scheduling new requests; in-flight requests
// finish and are recorded.
func Run(ctx context.Context, cfg RunConfig) (*Summary, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Workers > cfg.Requests {
		cfg.Workers = cfg.Requests
	}
	workers := make([]*workerState, cfg.Workers)
	for w := range workers {
		synth, err := NewSynth(cfg.Workload, uint64(w))
		if err != nil {
			return nil, err
		}
		workers[w] = &workerState{synth: synth}
	}

	start := cfg.Clock.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(ctx, &cfg, workers[w], w, start)
		}(w)
	}
	wg.Wait()
	end := cfg.Clock.Now()

	sum := &Summary{StartNs: start, EndNs: end}
	for op := Op(0); op < numOps; op++ {
		sum.Ops[op].Op = op
	}
	for _, ws := range workers {
		ws.mu.Lock()
		for op := range ws.ops {
			st := &sum.Ops[op]
			st.Requests += ws.ops[op].Requests
			st.Errors += ws.ops[op].Errors
			st.Status503 += ws.ops[op].Status503
			st.Observations += ws.ops[op].Observations
			st.Hist.Merge(&ws.ops[op].Hist)
			sum.TotalRequests += ws.ops[op].Requests
		}
		if ws.lateMax > sum.ScheduleLateMax {
			sum.ScheduleLateMax = ws.lateMax
		}
		ws.mu.Unlock()
	}
	return sum, ctx.Err()
}

// runWorker drives worker w's share of the pass: global request
// indices w, w+W, w+2W, … Each request is synthesized and encoded
// before its send instant so encode cost never eats into the schedule.
func runWorker(ctx context.Context, cfg *RunConfig, ws *workerState, w int, startNs int64) {
	var req Request
	var body []byte
	var inflight sync.WaitGroup
	interval := 0.0
	if cfg.Rate > 0 {
		interval = 1e9 / cfg.Rate
	}
	for k := w; k < cfg.Requests; k += cfg.Workers {
		if ctx.Err() != nil {
			break
		}
		ws.synth.Next(&req)
		observed := len(req.Groups)
		// The body must survive until the response returns; in open-loop
		// mode requests overlap, so each gets its own buffer. Closed-loop
		// mode reuses one buffer across the worker's sequential requests.
		if cfg.Rate > 0 {
			body = nil
		}
		body = EncodeBody(body[:0], &req, cfg.Binary)

		if cfg.Rate > 0 {
			sched := startNs + int64(float64(k)*interval)
			now := cfg.Clock.Now()
			if d := sched - now; d > 0 {
				cfg.Clock.Sleep(time.Duration(d))
			} else if late := -d; late > ws.lateMax {
				ws.lateMax = late
			}
			r := req // snapshot op/monitor; slices stay with the body already encoded
			// The synth reuses its batch buffers on the next Next call, so
			// the snapshot must not leak them to the in-flight goroutine.
			r.Groups, r.Outcomes = nil, nil
			inflight.Add(1)
			go func(sched int64, body []byte, r Request) {
				defer inflight.Done()
				status, retryAfter, err := cfg.Doer.Do(&r, body, cfg.Binary)
				res := Result{Op: r.Op, Status: status, Err: err,
					RetryAfter: retryAfter, LatencyNs: cfg.Clock.Now() - sched}
				ws.record(res, observed)
				if cfg.OnResult != nil {
					cfg.OnResult(res)
				}
			}(sched, body, r)
			continue
		}

		// Closed-loop saturation: fire sequentially, measure service time.
		sent := cfg.Clock.Now()
		status, retryAfter, err := cfg.Doer.Do(&req, body, cfg.Binary)
		res := Result{Op: req.Op, Status: status, Err: err,
			RetryAfter: retryAfter, LatencyNs: cfg.Clock.Now() - sent}
		ws.record(res, observed)
		if cfg.OnResult != nil {
			cfg.OnResult(res)
		}
	}
	inflight.Wait()
}

// HTTPDoer issues synthesized requests against a dfserve base URL.
type HTTPDoer struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Client is the shared HTTP client; size its transport's connection
	// pool to the worker count.
	Client *http.Client
	// MonitorIDs maps Request.Monitor indices to monitor ids.
	MonitorIDs []string
	// ReportSeed pins the report endpoint's audit seed so report
	// responses are deterministic server work.
	ReportSeed uint64
}

// Do implements Doer over HTTP. The response body is drained and
// discarded so connections return to the pool.
func (d *HTTPDoer) Do(req *Request, body []byte, binary bool) (int, bool, error) {
	id := d.MonitorIDs[req.Monitor]
	var hr *http.Request
	var err error
	switch req.Op {
	case OpReport:
		hr, err = http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/v1/monitors/%s/report?seed=%d", d.Base, id, d.ReportSeed), nil)
	default:
		path := "observe"
		if req.Op == OpDecide {
			path = "decide"
		}
		hr, err = http.NewRequest(http.MethodPost,
			fmt.Sprintf("%s/v1/monitors/%s/%s", d.Base, id, path), bytes.NewReader(body))
		if err == nil {
			if binary {
				hr.Header.Set("Content-Type", BinaryContentType)
			} else {
				hr.Header.Set("Content-Type", "application/json")
			}
		}
	}
	if err != nil {
		return 0, false, err
	}
	resp, err := d.Client.Do(hr)
	if err != nil {
		return 0, false, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After") != "", nil
}
