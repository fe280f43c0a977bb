package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

const (
	warmup = 2 * time.Second
	// setupRuns is how many times a --trace 0 run sets up from scratch;
	// setup_s is their median, and the last set-up serves the timed phase.
	setupRuns = 5
	// generatorLimit flags an open-loop run whose generator, not the
	// server, fell behind schedule.
	generatorLimit = time.Millisecond
)

type metric struct {
	name  string
	unit  string
	value float64
}

// result is one workload run: the gate verdict, the request counts,
// the metrics in BENCHMARK.json order, and the host and run metadata.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	meta      map[string]any
}

// runOpts are the command-line settings shared by every workload.
type runOpts struct {
	seed       uint64
	seconds    int
	trace      bool
	dfserveBin string
	workDir    string
}

// runWorkload runs one workload end to end. A *gateError means the
// outputs were wrong; the result then carries correct=false. Any other
// error means the harness could not run.
func runWorkload(ctx context.Context, wl *workload, o runOpts) (*result, error) {
	procs := runtime.GOMAXPROCS(0)
	dir := filepath.Join(o.workDir, "run", fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := newBench(wl, o.seed, o.dfserveBin, dir, procs)
	if err != nil {
		return nil, err
	}
	defer b.stopServer()

	// Flush dirty pages, such as the build's, so that their writeback
	// does not land in this run's fsyncs.
	syscall.Sync()
	res := &result{workload: wl.name, correct: true}
	res.meta = b.metadata(o)
	runs := 1
	if !o.trace {
		runs = setupRuns
	}
	setups := make([]float64, runs)
	for i := range setups {
		d, err := b.setUp(ctx)
		if err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
	}
	res.meta["setup_s_runs"] = setups

	// Phases: warm-up (discarded), timed, and with --trace 1 a traced
	// phase of the same length, compared with the timed one for the
	// tracing overhead.
	timed := phase{dur: time.Duration(o.seconds) * time.Second}
	phases := []phase{{dur: warmup}, timed}
	if o.trace {
		phases = append(phases, phase{dur: timed.dur, traced: true})
	}
	syscall.Sync()
	pass, err := b.drive(ctx, phases)
	if err != nil {
		return nil, err
	}
	for _, st := range pass.total {
		res.attempted += st.requests
		res.failed += st.failed
	}
	rss, err := b.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := b.checkCounts(ctx); err != nil {
		return nil, err
	}
	if err := b.verify(ctx); err != nil {
		return nil, err
	}
	b.stopServer()

	tm := &pass.total[1]
	lateMax := tm.lateMax
	if o.trace {
		lateMax = max(lateMax, pass.total[2].lateMax)
	}
	ops := map[string]any{}
	for op := loadgen.Op(0); op < numOps; op++ {
		if lat := pass.samples(1, op); len(lat) > 0 {
			ops[op.String()] = map[string]any{
				"samples":     len(lat),
				"p50_ms":      pass.latency(1, op, 0.5),
				"p99_ms":      pass.latency(1, op, 0.99),
				"all_p99_ms":  quantile(lat, 0.99),
				"all_p999_ms": quantile(lat, 0.999),
			}
		}
	}
	res.meta["timed_ops"] = ops
	res.meta["error_share"] = float64(res.failed) / float64(res.attempted)
	res.meta["sched_late_max_ms"] = lateMax.Seconds() * 1e3
	res.meta["generator_limited"] = wl.rate > 0 && lateMax > generatorLimit
	res.meta["host_steal_share"] = pass.stealShare(1)
	res.meta["quiet_windows"] = len(pass.quietWindows(1))

	if !o.trace {
		res.metrics = []metric{
			{"setup_s", "s", median(setups)},
			{"throughput_rps", "1/s", pass.throughput(1)},
			{"server_cpu_us_per_req", "us", pass.cpuPerRequest(1, true)},
			{"server_peak_rss_mb", "MB", rss},
			{"write_p50_ms", "ms", pass.latency(1, wl.writeOp(), 0.5)},
		}
		return res, nil
	}
	spanDir := filepath.Join(o.workDir, "trace")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	res.metrics, err = b.replay(ctx, pass, lateMax, filepath.Join(spanDir, wl.name+".spans.jsonl"))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// writeOp is the workload's state-changing request: decide on plan
// workloads, observe otherwise.
func (w *workload) writeOp() loadgen.Op {
	if w.mix.Decide > 0 {
		return loadgen.OpDecide
	}
	return loadgen.OpObserve
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	return quantile(ys, 0.5)
}

// metadata records the host and the run's settings with every result.
func (b *bench) metadata(o runOpts) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	loop := "closed"
	if b.wl.rate > 0 {
		loop = fmt.Sprintf("open %g rps", b.wl.rate)
	}
	return map[string]any{
		"workload":           b.wl.name,
		"seed":               o.seed,
		"seconds":            o.seconds,
		"warmup_s":           warmup.Seconds(),
		"trace":              o.trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs_bench":   b.procs,
		"gomaxprocs_dfserve": b.procs,
		"go_version":         runtime.Version(),
		"commit":             commit,
		"commit_modified":    modified,
		"colocated":          true,
		"dfserve_flags":      append([]string{"-addr", "127.0.0.1:0"}, b.wl.serverFlags("<data-dir>")...),
		"connections":        b.conns,
		"loop":               loop,
	}
}

// replay re-executes the pass in-process and derives the per-layer
// metrics of its traced phase (phase 2), paired request by request with
// the traced HTTP spans.
func (b *bench) replay(ctx context.Context, pass *passResult, lateMax time.Duration, spanPath string) ([]metric, error) {
	r, err := newReplayer(b)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.setUp(ctx); err != nil {
		return nil, err
	}
	recs := make([]*recorder, b.conns)
	stats := make([]layerStats, b.conns)
	layerNs := make([][]int64, b.conns)
	errs := make([]error, b.conns)
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		conn := pass.perConn[c]
		tracedFrom := conn[0].requests + conn[1].requests
		recs[c] = &recorder{epoch: b.epoch}
		layerNs[c] = make([]int64, conn[2].requests)
		wg.Add(1)
		go func(c, total, tracedFrom int) {
			defer wg.Done()
			errs[c] = r.replayConn(ctx, c, total, tracedFrom, recs[c], &stats[c], layerNs[c])
		}(c, tracedFrom+conn[2].requests, tracedFrom)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := r.close(); err != nil {
		return nil, err
	}

	var ls layerStats
	for c := range stats {
		ls.merge(&stats[c])
	}
	durs := map[string][]float64{} // µs per call, by span name
	for _, rec := range recs {
		for _, s := range rec.spans {
			if s.parent >= 0 {
				durs[s.name] = append(durs[s.name], float64(s.end-s.start)/1e3)
			}
		}
	}
	// self[op] pairs each traced HTTP call with the replay of the same
	// request: client span minus the layer time the replay measured.
	var self [numOps][]float64
	httpBusy := 0.0 // µs
	for c, rec := range pass.spans {
		tracedFrom := pass.perConn[c][0].requests + pass.perConn[c][1].requests
		for _, s := range rec.spans {
			d := float64(s.end-s.start) / 1e3
			httpBusy += d
			op := opOfSpan(s.name)
			self[op] = append(self[op], d-float64(layerNs[c][s.req.index-tracedFrom])/1e3)
		}
	}
	if err := writeSpans(spanPath, append(append([]*recorder(nil), pass.spans...), recs...)); err != nil {
		return nil, err
	}

	walSnap := sum(durs[spanWriteState]) + sum(durs[spanSnapshot]) + sum(durs[spanPrune])
	walBusy := sum(durs[spanAppend]) + sum(durs[spanSync]) + walSnap
	share := func(us float64) float64 {
		if httpBusy == 0 {
			return 0
		}
		return us / httpBusy
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	overhead := func(op loadgen.Op) float64 {
		base := pass.latency(1, op, 0.5)
		if base == 0 {
			return 0
		}
		return (pass.latency(2, op, 0.5) - base) / base * 100
	}
	return []metric{
		{"loadgen.client_cpu_us_per_req", "us", pass.cpuPerRequest(1, false)},
		{"loadgen.sched_late_max_ms", "ms", lateMax.Seconds() * 1e3},
		{"dfserve.observe_self_p50_us", "us", quantile(self[loadgen.OpObserve], 0.5)},
		{"dfserve.decide_self_p50_us", "us", quantile(self[loadgen.OpDecide], 0.5)},
		{"dfserve.report_self_p50_us", "us", quantile(self[loadgen.OpReport], 0.5)},
		{"wal.append_p50_us", "us", quantile(durs[spanAppend], 0.5)},
		{"wal.append_busy_ms", "ms", sum(durs[spanAppend]) / 1e3},
		{"wal.appends", "count", float64(len(durs[spanAppend]))},
		{"wal.record_bytes", "B", ratio(ls.walRecordBytes, len(durs[spanAppend]))},
		{"wal.sync_p50_us", "us", quantile(durs[spanSync], 0.5)},
		{"wal.sync_p99_us", "us", quantile(durs[spanSync], 0.99)},
		{"wal.sync_busy_ms", "ms", sum(durs[spanSync]) / 1e3},
		{"wal.syncs", "count", float64(len(durs[spanSync]))},
		{"wal.snapshots", "count", float64(len(durs[spanSnapshot]))},
		{"wal.snapshot_ms", "ms", walSnap / 1e3},
		{"wal.snapshot_bytes", "B", ratio(ls.snapshotBytes, len(durs[spanSnapshot]))},
		{"wal.busy_share", "ratio", share(walBusy)},
		{"stream.ingest_p50_us", "us", quantile(durs[spanIngest], 0.5)},
		{"stream.ingest_busy_ms", "ms", sum(durs[spanIngest]) / 1e3},
		{"stream.check_p50_us", "us", quantile(durs[spanCheck], 0.5)},
		{"stream.check_p99_us", "us", quantile(durs[spanCheck], 0.99)},
		{"stream.check_busy_ms", "ms", sum(durs[spanCheck]) / 1e3},
		{"stream.check_busy_share", "ratio", share(sum(durs[spanCheck]))},
		{"stream.checks", "count", float64(len(durs[spanCheck]))},
		{"stream.alerts", "count", float64(ls.alerts)},
		{"stream.served_ingest_p50_us", "us", quantile(durs[spanServed], 0.5)},
		{"repair.apply_p50_us", "us", quantile(durs[spanApply], 0.5)},
		{"repair.changed_share", "ratio", ratio(ls.changed, ls.decided)},
		{"repair.plan_ms", "ms", r.planMS},
		{"audit.run_p50_ms", "ms", quantile(durs[spanAudit], 0.5) / 1e3},
		{"audit.run_busy_ms", "ms", sum(durs[spanAudit]) / 1e3},
		{"audit.render_p50_us", "us", quantile(durs[spanRender], 0.5)},
		{"audit.report_bytes", "B", quantile(ls.reportBytes, 0.5)},
		{"audit.ladder_incremental_share", "ratio", ratio(ls.incremental, len(durs[spanAudit]))},
		{"audit.busy_share", "ratio", share(sum(durs[spanAudit]) + sum(durs[spanRender]))},
		{"trace.observe_overhead_pct", "%", overhead(loadgen.OpObserve)},
		{"trace.decide_overhead_pct", "%", overhead(loadgen.OpDecide)},
		{"trace.report_overhead_pct", "%", overhead(loadgen.OpReport)},
	}, nil
}

// opOfSpan maps an HTTP span name ("http.<op>") back to its op.
func opOfSpan(name string) loadgen.Op {
	for op := loadgen.Op(0); op < numOps; op++ {
		if name == "http."+op.String() {
			return op
		}
	}
	return loadgen.OpObserve
}
