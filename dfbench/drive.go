package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/loadgen"
)

// phase is one contiguous stretch of a load pass. Every connection runs
// the phases back to back on one synthesized stream, so the replay can
// regenerate exactly the requests each phase sent. Durations are whole
// seconds.
type phase struct {
	dur    time.Duration
	traced bool // record a span around every HTTP call
}

// window is the unit the timed metrics are taken over: each metric is
// the median of its values over the phase's quiet windows.
const window = time.Second

const numOps = 3 // loadgen.OpObserve, OpDecide, OpReport

// phaseStats counts one phase of one connection, or of all of them.
type phaseStats struct {
	requests  int // requests sent, successful or not
	failed    int // transport errors and non-2xx statuses, 503 included
	succeeded [numOps]int
	// decided and changed count decide rows and rows the plan changed.
	decided, changed int
	// lateMax is the open-loop generator's own lateness: how long after
	// max(scheduled time, previous response) a request actually went out.
	lateMax time.Duration
}

func (s *phaseStats) merge(o *phaseStats) {
	s.requests += o.requests
	s.failed += o.failed
	for op := range s.succeeded {
		s.succeeded[op] += o.succeeded[op]
	}
	s.decided += o.decided
	s.changed += o.changed
	s.lateMax = max(s.lateMax, o.lateMax)
}

// windowStats holds per-window samples of one connection, or of all.
type windowStats struct {
	// completed counts successful responses that arrived in each window;
	// first and last are the earliest and latest of their arrival times.
	completed   []int
	first, last []time.Time
	// lat[op][w] holds the latency in ms of every successful request due
	// in window w: from the scheduled send time when the connection was
	// still busy with the previous request (the server's backlog), from
	// the actual send otherwise (the generator's own lateness is
	// reported apart, as loadgen.sched_late_max_ms).
	lat [numOps][][]float64
}

func newWindowStats(n int) windowStats {
	ws := windowStats{completed: make([]int, n), first: make([]time.Time, n), last: make([]time.Time, n)}
	for op := range ws.lat {
		ws.lat[op] = make([][]float64, n)
	}
	return ws
}

func (s *windowStats) merge(o *windowStats) {
	for w := range s.completed {
		s.completed[w] += o.completed[w]
		if s.first[w].IsZero() || (!o.first[w].IsZero() && o.first[w].Before(s.first[w])) {
			s.first[w] = o.first[w]
		}
		if o.last[w].After(s.last[w]) {
			s.last[w] = o.last[w]
		}
		for op := range s.lat {
			s.lat[op][w] = append(s.lat[op][w], o.lat[op][w]...)
		}
	}
}

// cpuSample is both processes' CPU time at a window boundary.
type cpuSample struct {
	server, client float64 // seconds
	// steal and total are the host's stolen and total CPU time.
	steal, total float64
}

// passResult is one load pass.
type passResult struct {
	phases []phase
	// perConn[c][p] is connection c's phase p; total[p] merges them.
	perConn [][]phaseStats
	total   []phaseStats
	win     windowStats
	// cpu[w] is sampled when window w starts; cpu[len] when the pass ends.
	cpu []cpuSample
	// spans holds each connection's HTTP spans from traced phases.
	spans []*recorder
}

// windows returns the window range [lo, hi) of phase p.
func (r *passResult) windows(p int) (int, int) {
	lo := 0
	for i := 0; i < p; i++ {
		lo += int(r.phases[i].dur / window)
	}
	return lo, lo + int(r.phases[p].dur/window)
}

// maxSteal is the share of the host's CPU time the hypervisor may steal
// in a window that the timed metrics are taken over. On a shared host,
// per-window open-loop p50 tracked steal closely: 0.35-0.40 ms at none,
// 0.6 ms at 10% and 0.8 ms at 20%. Steal is other tenants' load, not the
// program's, and it comes in bursts that cover part of a run.
const maxSteal = 0.02

// quietWindows returns the windows of phase p that the timed metrics
// are taken over: those in which the hypervisor stole at most maxSteal
// of the host's CPU, or when fewer than a quarter of the phase's windows
// are that quiet, the least-stolen quarter.
func (r *passResult) quietWindows(p int) []int {
	lo, hi := r.windows(p)
	ws := make([]int, 0, hi-lo)
	for w := lo; w < hi; w++ {
		ws = append(ws, w)
	}
	sort.SliceStable(ws, func(i, j int) bool { return r.steal(ws[i]) < r.steal(ws[j]) })
	n := 0
	for n < len(ws) && r.steal(ws[n]) <= maxSteal {
		n++
	}
	return ws[:max(n, (len(ws)+3)/4)]
}

// steal is the share of the host's CPU time stolen during window w.
func (r *passResult) steal(w int) float64 {
	a, b := r.cpu[w], r.cpu[w+1]
	if b.total == a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// stealShare is the share of the host's CPU time stolen during phase p.
func (r *passResult) stealShare(p int) float64 {
	lo, hi := r.windows(p)
	a, b := r.cpu[lo], r.cpu[hi]
	if b.total == a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// throughput is the median over phase p's quiet windows of the rate at
// which successful responses arrived: the responses after a window's
// first, over the time from its first to its last.
func (r *passResult) throughput(p int) float64 {
	var xs []float64
	for _, w := range r.quietWindows(p) {
		if n := r.win.completed[w]; n > 1 {
			xs = append(xs, float64(n-1)/r.win.last[w].Sub(r.win.first[w]).Seconds())
		}
	}
	return median(xs)
}

// cpuPerRequest is the median over phase p's quiet windows of the
// process's CPU µs per successful response.
func (r *passResult) cpuPerRequest(p int, server bool) float64 {
	var xs []float64
	for _, w := range r.quietWindows(p) {
		a, b := r.cpu[w], r.cpu[w+1]
		d := b.client - a.client
		if server {
			d = b.server - a.server
		}
		if n := r.win.completed[w]; n > 0 {
			xs = append(xs, d*1e6/float64(n))
		}
	}
	return median(xs)
}

// latency is the median over phase p's quiet windows of each window's
// q-quantile latency of op, in ms.
func (r *passResult) latency(p int, op loadgen.Op, q float64) float64 {
	var xs []float64
	for _, w := range r.quietWindows(p) {
		if lat := r.win.lat[op][w]; len(lat) > 0 {
			xs = append(xs, quantile(lat, q))
		}
	}
	return median(xs)
}

// samples returns every latency sample of op in phase p.
func (r *passResult) samples(p int, op loadgen.Op) []float64 {
	lo, hi := r.windows(p)
	var xs []float64
	for w := lo; w < hi; w++ {
		xs = append(xs, r.win.lat[op][w]...)
	}
	return xs
}

// drive runs the phases against the live dfserve: one goroutine per
// connection, each working through its own synthesized substream. In a
// closed loop each connection sends its next request when the previous
// one returns; in an open loop request k (counted across connections)
// is due at start + k/rate, as in loadgen.Run.
func (b *bench) drive(ctx context.Context, phases []phase) (*passResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := &passResult{
		phases:  phases,
		perConn: make([][]phaseStats, b.conns),
		total:   make([]phaseStats, len(phases)),
		spans:   make([]*recorder, b.conns),
	}
	_, nwin := res.windows(len(phases) - 1)
	res.win = newWindowStats(nwin)
	res.cpu = make([]cpuSample, nwin+1)
	start := time.Now().Add(20 * time.Millisecond)

	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		gateErr error
		cpuErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() { gateErr = err; cancel() })
	}
	// The sampler reads both processes' CPU at every window boundary.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w <= nwin; w++ {
			timer := time.NewTimer(time.Until(start.Add(time.Duration(w) * window)))
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			srv, err := b.srv.cpuSeconds()
			if err != nil {
				cpuErr = fmt.Errorf("reading dfserve CPU: %w", err)
			}
			cli, err := selfCPUSeconds()
			if err != nil {
				cpuErr = fmt.Errorf("reading client CPU: %w", err)
			}
			steal, total, err := hostCPU()
			if err != nil {
				cpuErr = fmt.Errorf("reading host CPU: %w", err)
			}
			res.cpu[w] = cpuSample{server: srv, client: cli, steal: steal, total: total}
		}
	}()
	wins := make([]windowStats, b.conns)
	for c := 0; c < b.conns; c++ {
		res.perConn[c] = make([]phaseStats, len(phases))
		res.spans[c] = &recorder{epoch: b.epoch}
		wins[c] = newWindowStats(nwin)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := b.runConn(ctx, c, start, res, &wins[c]); err != nil {
				fail(err)
			}
		}(c)
	}
	wg.Wait()
	if gateErr != nil {
		return nil, &gateError{gateErr}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	for c, conn := range res.perConn {
		for p := range conn {
			res.total[p].merge(&conn[p])
		}
		res.win.merge(&wins[c])
	}
	return res, nil
}

// runConn is connection c's request loop. A correctness failure in a
// 2xx body ends it with an error; transport errors and non-2xx statuses
// only count as failed requests.
func (b *bench) runConn(ctx context.Context, c int, start time.Time, res *passResult, win *windowStats) error {
	synth, err := loadgen.NewSynth(b.wl.loadConfig(b.space, b.seed), uint64(c))
	if err != nil {
		return err
	}
	phaseOf := make([]int, len(win.completed)) // window → phase
	for p := range res.phases {
		lo, hi := res.windows(p)
		for w := lo; w < hi; w++ {
			phaseOf[w] = p
		}
	}
	stats, rec := res.perConn[c], res.spans[c]
	var (
		req      loadgen.Request
		body     []byte
		buf      bytes.Buffer
		prevDone = start
		interval time.Duration
	)
	if b.wl.rate > 0 {
		interval = time.Duration(1e9 / b.wl.rate)
	}
	for j := 0; ; j++ {
		synth.Next(&req)
		n := len(req.Groups)
		body = loadgen.EncodeBody(body[:0], &req, true)

		var due time.Time
		if interval > 0 {
			due = start.Add(time.Duration(j*b.conns+c) * interval)
			time.Sleep(time.Until(due))
		} else {
			due = time.Now()
		}
		w := int(due.Sub(start) / window)
		if w >= len(win.completed) || ctx.Err() != nil {
			return nil
		}
		p := phaseOf[w]
		sent := time.Now()
		from := sent
		if interval > 0 {
			if prevDone.After(due) {
				from = due
			}
			stats[p].lateMax = max(stats[p].lateMax, sent.Sub(later(due, prevDone)))
		}
		method, url := b.urls.requestURL(&req)
		var reqBody []byte
		if req.Op != loadgen.OpReport {
			reqBody = body
		}
		err := call(ctx, b.hc, method, url, loadgen.BinaryContentType, reqBody, &buf, http.StatusOK)
		done := time.Now()
		prevDone = done
		st := &stats[p]
		st.requests++
		if res.phases[p].traced {
			rec.add("http."+req.Op.String(), int64(sent.Sub(b.epoch)), int64(done.Sub(b.epoch)), -1, reqID{c, j})
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			st.failed++
			continue
		}
		switch req.Op {
		case loadgen.OpObserve:
			if err := checkObserve(buf.Bytes(), n); err != nil {
				return err
			}
			b.acked[req.Monitor].Add(int64(n))
		case loadgen.OpDecide:
			changed, err := checkDecide(buf.Bytes(), n, b.planVersion)
			if err != nil {
				return err
			}
			b.acked[req.Monitor].Add(int64(n))
			b.servedAcked[req.Monitor].Add(int64(n))
			st.decided += n
			st.changed += changed
		case loadgen.OpReport:
			if err := checkReport(buf.Bytes()); err != nil {
				return err
			}
		}
		st.succeeded[req.Op]++
		win.lat[req.Op][w] = append(win.lat[req.Op][w], float64(done.Sub(from))/1e6)
		if wd := int(done.Sub(start) / window); wd < len(win.completed) {
			win.completed[wd]++
			if win.first[wd].IsZero() {
				win.first[wd] = done
			}
			win.last[wd] = done
		}
	}
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// gateError marks a correctness-gate failure: the run's outputs were
// wrong, as opposed to the harness failing to run.
type gateError struct{ err error }

func (e *gateError) Error() string { return "correctness gate: " + e.err.Error() }
