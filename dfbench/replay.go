package main

// The in-process replay: the identical synthesized stream, re-executed
// through the public calls dfserve's handlers make, in the order they
// make them, with a span around each call. It times each layer from
// outside the server, so the server itself carries no instrumentation.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	fairness "repro"
	"repro/internal/loadgen"
	"repro/internal/wal"
)

// dfserve's WAL record kinds (cmd/dfserve/persist.go). The replay writes
// records of the same kinds and sizes so WAL and snapshot cadence match.
const (
	recMonitorPut  byte = 1
	recObserve     byte = 3
	recPlanInstall byte = 4
	recDecide      byte = 5
)

// Names of the replay's layer calls, as recorded in spans.
const (
	spanAppend     = "wal.Log.Append"
	spanSync       = "wal.Log.Sync"
	spanWriteState = "stream.Monitor.WriteState"
	spanSnapshot   = "wal.WriteSnapshot"
	spanPrune      = "wal.Log.PruneTo"
	spanIngest     = "stream.Monitor.ObserveBatch"
	spanCheck      = "stream.Watch.Check"
	spanServed     = "stream.served.ObserveBatch"
	spanApply      = "repair.Applier.ApplyAt"
	spanAudit      = "audit.Monitor.Audit"
	spanRender     = "audit.Report.RenderJSON"
)

type replayMonitor struct {
	id       string
	mon      *fairness.Monitor
	watch    *fairness.Watch
	served   *fairness.Monitor
	app      *fairness.Applier
	planJSON []byte
	// tickets is the plan's decide ticket clock, as dfserve keeps it.
	tickets atomic.Uint64
}

// layerStats are the per-layer counts of one replay goroutine, taken
// over traced requests only.
type layerStats struct {
	walRecordBytes int
	alerts         int
	decided        int
	changed        int
	incremental    int
	reportBytes    []float64
	snapshotBytes  int
}

func (s *layerStats) merge(o *layerStats) {
	s.walRecordBytes += o.walRecordBytes
	s.alerts += o.alerts
	s.decided += o.decided
	s.changed += o.changed
	s.incremental += o.incremental
	s.reportBytes = append(s.reportBytes, o.reportBytes...)
	s.snapshotBytes += o.snapshotBytes
}

type replayer struct {
	b    *bench
	mons [monitorCount]*replayMonitor
	log  *wal.Log // nil when the workload runs without -data-dir
	dir  string
	// persistMu and snapMu follow dfserve's protocol: requests hold
	// persistMu shared around append+apply, snapshot capture holds it
	// exclusively.
	persistMu sync.RWMutex
	snapMu    sync.Mutex
	lastSnap  atomic.Uint64
	planMS    float64
}

// tracer times the calls of one request as children of its root span.
type tracer struct {
	rec   *recorder
	root  int
	id    reqID
	on    bool
	layer int64 // ns spent in child calls
	stats *layerStats
}

func (t *tracer) time(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	start := t.rec.now()
	err := fn()
	end := t.rec.now()
	t.rec.add(name, start, end, t.root, t.id)
	t.layer += end - start
	return err
}

func newReplayer(b *bench) (*replayer, error) {
	r := &replayer{b: b, dir: filepath.Join(b.dir, "replay")}
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	if b.wl.fsync != "" {
		policy, err := wal.ParseSyncPolicy(b.wl.fsync)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		if r.log, err = wal.Open(r.dir, wal.WithSyncPolicy(policy)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// close closes the WAL; it is safe to call more than once.
func (r *replayer) close() error {
	if r.log == nil {
		return nil
	}
	err := r.log.Close()
	r.log = nil
	return err
}

// commit appends one record and syncs it under the workload's policy,
// as dfserve's durability.commit does.
func (r *replayer) commit(t *tracer, rec []byte) error {
	if r.log == nil {
		return nil
	}
	if t.on {
		t.stats.walRecordBytes += len(rec)
	}
	if err := t.time(spanAppend, func() error { _, err := r.log.Append(rec); return err }); err != nil {
		return err
	}
	return t.time(spanSync, r.log.Sync)
}

// setUp replays the set-up sequence: monitors built, windows filled,
// and on plan workloads the plans computed (timed as repair.plan_ms) and
// the served streams filled.
func (r *replayer) setUp(ctx context.Context) error {
	b := r.b
	off := &tracer{stats: &layerStats{}}
	for m := range r.mons {
		mon, watch, err := b.wl.newMonitor(b.space)
		if err != nil {
			return err
		}
		rm := &replayMonitor{id: monitorID(m), mon: mon, watch: watch}
		r.mons[m] = rm
		rec, err := json.Marshal(struct {
			ID   string          `json:"id"`
			Spec json.RawMessage `json:"spec"`
		}{rm.id, b.spec})
		if err != nil {
			return err
		}
		if err := r.commit(off, append([]byte{recMonitorPut}, rec...)); err != nil {
			return err
		}
	}
	var body []byte
	return forEachFill(b.wl, b.space, b.seed, func(m int, op loadgen.Op, groups, outcomes []int) error {
		if op == loadgen.OpObserve {
			body = loadgen.AppendBinaryBatch(body[:0], groups, outcomes)
			return r.observe(off, r.mons[m], groups, outcomes, body)
		}
		return r.decide(off, r.mons[m], groups, outcomes)
	}, func(m int) error {
		rm := r.mons[m]
		t0 := time.Now()
		rep, err := fairness.NewRepairer(b.space, outcomeLabels,
			fairness.WithTargetEpsilon(targetEpsilon), fairness.WithAlpha(alpha))
		if err != nil {
			return err
		}
		plan, err := rep.PlanMonitor(ctx, rm.mon)
		if err != nil {
			return err
		}
		if rm.app, err = plan.Applier(); err != nil {
			return err
		}
		r.planMS += float64(time.Since(t0)) / 1e6
		if rm.planJSON, err = json.Marshal(plan); err != nil {
			return err
		}
		if rm.served, err = fairness.NewSlidingMonitor(b.space, outcomeLabels, windowSize, windowBuckets, alpha); err != nil {
			return err
		}
		return r.commit(off, append([]byte{recPlanInstall}, rm.planJSON...))
	})
}

// observe mirrors dfserve's binary observe handler after decode: WAL
// commit, then ObserveBatch and the Watch check (together
// ObserveBatchChecked), then the snapshot schedule.
func (r *replayer) observe(t *tracer, rm *replayMonitor, groups, outcomes []int, body []byte) error {
	r.persistMu.RLock()
	err := r.commit(t, observeRecord(rm.id, body))
	if err == nil {
		err = r.ingest(t, rm, groups, outcomes)
	}
	r.persistMu.RUnlock()
	if err != nil {
		return err
	}
	return r.maybeSnapshot(t)
}

func (r *replayer) ingest(t *tracer, rm *replayMonitor, groups, outcomes []int) error {
	if err := t.time(spanIngest, func() error { return rm.mon.ObserveBatch(groups, outcomes) }); err != nil {
		return err
	}
	return t.time(spanCheck, func() error {
		alert, _, err := rm.watch.Check()
		if alert != nil && t.on {
			t.stats.alerts++
		}
		return err
	})
}

// decide mirrors dfserve's decide handler: ApplyAt on a copy at the
// plan's ticket, WAL commit, raw batch into the watched monitor and the
// repaired batch into the served stream.
func (r *replayer) decide(t *tracer, rm *replayMonitor, groups, decisions []int) error {
	repaired := append([]int(nil), decisions...)
	n := uint64(len(groups))
	ticket := rm.tickets.Add(n) - n
	var changed int
	if err := t.time(spanApply, func() error {
		var err error
		changed, err = rm.app.ApplyAt(ticket, groups, repaired)
		return err
	}); err != nil {
		return err
	}
	if t.on {
		t.stats.decided += len(groups)
		t.stats.changed += changed
	}
	r.persistMu.RLock()
	err := r.commit(t, decideRecord(rm.id, ticket, groups, decisions, repaired))
	if err == nil {
		err = r.ingest(t, rm, groups, decisions)
	}
	if err == nil {
		err = t.time(spanServed, func() error { return rm.served.ObserveBatch(groups, repaired) })
	}
	r.persistMu.RUnlock()
	if err != nil {
		return err
	}
	return r.maybeSnapshot(t)
}

// report mirrors dfserve's report handler: Monitor.Audit over a live
// snapshot, rendered by Report.RenderJSON.
func (r *replayer) report(ctx context.Context, t *tracer, rm *replayMonitor) error {
	var rep *fairness.Report
	if err := t.time(spanAudit, func() error {
		var err error
		rep, err = rm.mon.Audit(ctx, reportOptions()...)
		return err
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := t.time(spanRender, func() error { return rep.RenderJSON(&buf) }); err != nil {
		return err
	}
	if t.on {
		t.stats.reportBytes = append(t.stats.reportBytes, float64(buf.Len()))
		if rep.LadderSource == fairness.LadderSourceIncremental {
			t.stats.incremental++
		}
	}
	return nil
}

// maybeSnapshot follows dfserve's schedule: once snapshotInterval
// records accumulate, capture every monitor's state under the exclusive
// lock, write the snapshot and prune the covered WAL segments.
func (r *replayer) maybeSnapshot(t *tracer) error {
	if r.log == nil || r.log.Seq()-r.lastSnap.Load() < snapshotInterval {
		return nil
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if r.log.Seq()-r.lastSnap.Load() < snapshotInterval {
		return nil
	}
	var payload []byte
	var seq uint64
	err := t.time(spanWriteState, func() error {
		r.persistMu.Lock()
		defer r.persistMu.Unlock()
		seq = r.log.Seq()
		var err error
		payload, err = r.capture()
		return err
	})
	if err != nil {
		return err
	}
	if err := t.time(spanSnapshot, func() error { return wal.WriteSnapshot(r.dir, seq, payload) }); err != nil {
		return err
	}
	r.lastSnap.Store(seq)
	if t.on {
		t.stats.snapshotBytes += len(payload)
	}
	return t.time(spanPrune, func() error { return r.log.PruneTo(seq) })
}

// capture serializes every monitor as dfserve's snapshot does: id, spec,
// raw state, served state and plan, in id order.
func (r *replayer) capture() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("DFS1")
	buf.Write(binary.AppendUvarint(nil, monitorCount))
	for _, rm := range r.mons {
		var state bytes.Buffer
		if err := rm.mon.WriteState(&state); err != nil {
			return nil, fmt.Errorf("capturing %s: %w", rm.id, err)
		}
		parts := [][]byte{[]byte(rm.id), r.b.spec, state.Bytes()}
		if rm.served != nil {
			var sv bytes.Buffer
			if err := rm.served.WriteState(&sv); err != nil {
				return nil, fmt.Errorf("capturing %s served: %w", rm.id, err)
			}
			parts = append(parts, sv.Bytes(), rm.planJSON)
		}
		for _, p := range parts {
			buf.Write(binary.AppendUvarint(nil, uint64(len(p))))
			buf.Write(p)
		}
	}
	return buf.Bytes(), nil
}

// observeRecord is dfserve's observe record for a binary body: the body
// bytes spliced after the [kind][id] header.
func observeRecord(id string, body []byte) []byte {
	rec := make([]byte, 0, 16+len(id)+len(body))
	rec = append(rec, recObserve)
	rec = binary.AppendUvarint(rec, uint64(len(id)))
	rec = append(rec, id...)
	return append(rec, body...)
}

func decideRecord(id string, ticket uint64, groups, raw, repaired []int) []byte {
	rec := make([]byte, 0, 24+len(id)+6*len(groups))
	rec = append(rec, recDecide)
	rec = binary.AppendUvarint(rec, uint64(len(id)))
	rec = append(rec, id...)
	rec = binary.AppendUvarint(rec, ticket)
	rec = binary.AppendUvarint(rec, uint64(len(groups)))
	for i := range groups {
		rec = binary.AppendUvarint(rec, uint64(groups[i]))
		rec = binary.AppendUvarint(rec, uint64(raw[i]))
		rec = binary.AppendUvarint(rec, uint64(repaired[i]))
	}
	return rec
}

// replayConn replays connection c's first total requests — the same
// substream, in the same order — recording spans for requests from
// index tracedFrom on. layerNs[j] receives request j's time in layer
// calls.
func (r *replayer) replayConn(ctx context.Context, c, total, tracedFrom int, rec *recorder, stats *layerStats, layerNs []int64) error {
	synth, err := loadgen.NewSynth(r.b.wl.loadConfig(r.b.space, r.b.seed), uint64(c))
	if err != nil {
		return err
	}
	var req loadgen.Request
	var body []byte
	for j := 0; j < total; j++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		synth.Next(&req)
		t := &tracer{rec: rec, root: -1, id: reqID{c, j}, on: j >= tracedFrom, stats: stats}
		var start int64
		if t.on {
			start = rec.now()
			t.root = rec.add("replay."+req.Op.String(), start, 0, -1, t.id)
		}
		rm := r.mons[req.Monitor]
		switch req.Op {
		case loadgen.OpObserve:
			body = loadgen.AppendBinaryBatch(body[:0], req.Groups, req.Outcomes)
			err = r.observe(t, rm, req.Groups, req.Outcomes, body)
		case loadgen.OpDecide:
			err = r.decide(t, rm, req.Groups, req.Outcomes)
		case loadgen.OpReport:
			err = r.report(ctx, t, rm)
		}
		if err != nil {
			return fmt.Errorf("replaying %s on connection %d request %d: %w", req.Op, c, j, err)
		}
		if t.on {
			rec.spans[t.root].end = rec.now()
			layerNs[j-tracedFrom] = t.layer
		}
	}
	return nil
}
