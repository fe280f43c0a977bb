package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	fairness "repro"
	"repro/internal/loadgen"
)

// bench is one workload's run against one dfserve child at a time.
type bench struct {
	wl         *workload
	seed       uint64
	dfserveBin string
	dir        string // the run's scratch directory, removed at the end
	procs      int    // GOMAXPROCS of both processes
	conns      int
	space      *fairness.Space
	spec       []byte
	epoch      time.Time

	srv         *dfserveProc
	hc          *http.Client
	urls        *urls
	planVersion int
	// acked and servedAcked count the observations each monitor's raw and
	// served streams acknowledged, set-up included.
	acked, servedAcked [monitorCount]atomic.Int64
}

func newBench(wl *workload, seed uint64, dfserveBin, dir string, procs int) (*bench, error) {
	space, err := wl.space()
	if err != nil {
		return nil, err
	}
	spec, err := wl.specJSON(space)
	if err != nil {
		return nil, err
	}
	conns := min(maxConnections, procs)
	return &bench{
		wl: wl, seed: seed, dfserveBin: dfserveBin, dir: dir, procs: procs,
		conns: conns, space: space, spec: spec, epoch: time.Now(),
		hc: newHTTPClient(conns),
	}, nil
}

func (b *bench) stopServer() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
	b.hc.CloseIdleConnections()
}

// setUp boots a fresh dfserve over an empty data directory and brings it
// to the state the timed phase starts from: monitors provisioned,
// windows full, and on plan workloads a repair plan installed on every
// monitor and the served stream full. It returns the elapsed time from
// spawning dfserve.
func (b *bench) setUp(ctx context.Context) (time.Duration, error) {
	b.stopServer()
	dataDir := filepath.Join(b.dir, "data")
	if err := os.RemoveAll(dataDir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return 0, err
	}
	for m := range b.acked {
		b.acked[m].Store(0)
		b.servedAcked[m].Store(0)
	}
	start := time.Now()
	srv, err := startDfserve(b.dfserveBin, filepath.Join(b.dir, "dfserve.log"), b.procs, b.wl.serverFlags(dataDir))
	if err != nil {
		return 0, err
	}
	b.srv = srv
	b.urls = newURLs(srv.base, monitorCount)
	var buf bytes.Buffer
	for m := 0; m < monitorCount; m++ {
		if err := call(ctx, b.hc, http.MethodPut, b.urls.stats[m], "application/json", b.spec, &buf, http.StatusCreated); err != nil {
			return 0, fmt.Errorf("provisioning: %w", err)
		}
	}
	err = forEachFill(b.wl, b.space, b.seed, func(m int, op loadgen.Op, groups, outcomes []int) error {
		body := loadgen.AppendBinaryBatch(nil, groups, outcomes)
		n := len(groups)
		if op == loadgen.OpObserve {
			if err := call(ctx, b.hc, http.MethodPost, b.urls.observe[m], loadgen.BinaryContentType, body, &buf, http.StatusOK); err != nil {
				return fmt.Errorf("filling: %w", err)
			}
			if err := checkObserve(buf.Bytes(), n); err != nil {
				return &gateError{err}
			}
			b.acked[m].Add(int64(n))
			return nil
		}
		if err := call(ctx, b.hc, http.MethodPost, b.urls.decide[m], loadgen.BinaryContentType, body, &buf, http.StatusOK); err != nil {
			return fmt.Errorf("filling the served stream: %w", err)
		}
		if _, err := checkDecide(buf.Bytes(), n, b.planVersion); err != nil {
			return &gateError{err}
		}
		b.acked[m].Add(int64(n))
		b.servedAcked[m].Add(int64(n))
		return nil
	}, func(m int) error {
		body := fmt.Appendf(nil, `{"target_epsilon":%g}`, targetEpsilon)
		if err := call(ctx, b.hc, http.MethodPost, b.urls.stats[m]+"/repair", "application/json", body, &buf, http.StatusOK); err != nil {
			return fmt.Errorf("installing the plan: %w", err)
		}
		var r repairResp
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			return &gateError{fmt.Errorf("repair response: %w", err)}
		}
		if len(r.Alert) != 0 {
			return &gateError{fmt.Errorf("repair response: threshold fired: %s", r.Alert)}
		}
		b.planVersion = r.PlanVersion
		return nil
	})
	if err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// forEachFill walks the set-up sequence dfserve and the replay share:
// every monitor's window filled with observe batches; then, on plan
// workloads, a plan installed on every monitor and its served stream
// filled with decide batches.
func forEachFill(wl *workload, space *fairness.Space, seed uint64,
	batch func(m int, op loadgen.Op, groups, outcomes []int) error, plan func(m int) error) error {
	var req loadgen.Request
	fill := func(stream int, m int, op loadgen.Op) error {
		synth, err := loadgen.NewSynth(wl.fillConfig(space, seed), uint64(stream))
		if err != nil {
			return err
		}
		for i := 0; i < windowSize/fillBatch; i++ {
			synth.Next(&req)
			if err := batch(m, op, req.Groups, req.Outcomes); err != nil {
				return err
			}
		}
		return nil
	}
	for m := 0; m < monitorCount; m++ {
		if err := fill(m, m, loadgen.OpObserve); err != nil {
			return err
		}
	}
	if !wl.plan {
		return nil
	}
	for m := 0; m < monitorCount; m++ {
		if err := plan(m); err != nil {
			return err
		}
	}
	for m := 0; m < monitorCount; m++ {
		if err := fill(monitorCount+m, m, loadgen.OpDecide); err != nil {
			return err
		}
	}
	return nil
}

// checkCounts is the post-pass gate: every monitor's seen and
// served_seen equal the observations dfserve acknowledged.
func (b *bench) checkCounts(ctx context.Context) error {
	var buf bytes.Buffer
	for m := 0; m < monitorCount; m++ {
		if err := call(ctx, b.hc, http.MethodGet, b.urls.stats[m], "", nil, &buf, http.StatusOK); err != nil {
			return err
		}
		var st monitorStatsResp
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			return &gateError{fmt.Errorf("monitor stats: %w", err)}
		}
		if want := b.acked[m].Load(); int64(st.Seen) != want {
			return &gateError{fmt.Errorf("%s: seen %d, acknowledged %d", monitorID(m), st.Seen, want)}
		}
		if want := b.servedAcked[m].Load(); int64(st.ServedSeen) != want {
			return &gateError{fmt.Errorf("%s: served_seen %d, acknowledged %d", monitorID(m), st.ServedSeen, want)}
		}
	}
	return nil
}

// verify feeds a deterministic sequence over one connection to a fresh
// monitor with the workload's spec, and requires its report to be
// byte-identical to an in-process fairness.Monitor fed the same batches
// and rendered by Audit(...).RenderJSON.
func (b *bench) verify(ctx context.Context) error {
	const batches = 128
	root := b.srv.base + "/v1/monitors/verify"
	var buf bytes.Buffer
	if err := call(ctx, b.hc, http.MethodPut, root, "application/json", b.spec, &buf, http.StatusCreated); err != nil {
		return err
	}
	mon, watch, err := b.wl.newMonitor(b.space)
	if err != nil {
		return err
	}
	cfg := b.wl.loadConfig(b.space, b.seed^verifySalt)
	cfg.Monitors, cfg.Mix = 1, loadgen.Mix{Observe: 1}
	synth, err := loadgen.NewSynth(cfg, 0)
	if err != nil {
		return err
	}
	var req loadgen.Request
	var body []byte
	for i := 0; i < batches; i++ {
		synth.Next(&req)
		body = loadgen.AppendBinaryBatch(body[:0], req.Groups, req.Outcomes)
		if err := call(ctx, b.hc, http.MethodPost, root+"/observe", loadgen.BinaryContentType, body, &buf, http.StatusOK); err != nil {
			return err
		}
		if err := checkObserve(buf.Bytes(), len(req.Groups)); err != nil {
			return &gateError{err}
		}
		if alert, _, err := watch.ObserveBatchChecked(req.Groups, req.Outcomes); err != nil || alert != nil {
			return &gateError{fmt.Errorf("in-process verify monitor: alert %v, err %v", alert, err)}
		}
	}
	if err := call(ctx, b.hc, http.MethodGet, root+"/report?"+reportQuery, "", nil, &buf, http.StatusOK); err != nil {
		return err
	}
	rep, err := mon.Audit(ctx, reportOptions()...)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := rep.RenderJSON(&want); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		return &gateError{fmt.Errorf("verify report differs from the in-process report (%d vs %d bytes)", buf.Len(), want.Len())}
	}
	return nil
}
