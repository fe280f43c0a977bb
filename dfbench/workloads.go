package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	fairness "repro"
	"repro/internal/loadgen"
)

// Shape shared by every workload. Each monitor is a sliding window of
// windowSize observations in windowBuckets buckets, filled during set-up
// so that the timed phase evicts a whole bucket every 8192 observations.
const (
	monitorCount  = 4
	monitorSkew   = 1.0 // zipf exponent of the hot-key skew across monitors
	groupSkew     = 0.5 // zipf exponent of the population skew across groups
	batchSize     = 64
	windowSize    = 65536
	windowBuckets = 8
	fillBatch     = 4096
	alpha         = 1.0
	// The positive-outcome rate ramps from baseRate to baseRate+rateSpread
	// across groups, so the stream carries a real, nontrivial ε.
	baseRate   = 0.3
	rateSpread = 0.4
	// The armed thresholds sit far beyond what this stream reaches, even
	// in the sparsest groups of the 8192-observation verify sequence, so
	// they never fire; the correctness gate fails the run on any alert.
	epsThreshold     = 6.0
	minEffective     = 4096
	targetEpsilon    = 0.5
	reportQuery      = "credible=200&metrics=worst_gap,alpha_if"
	maxConnections   = 2
	snapshotInterval = 4096 // dfserve's default -snapshot-interval
)

var outcomeLabels = []string{"deny", "approve"}

// workload is one named traffic mix against one dfserve configuration.
type workload struct {
	name string
	// attrs is the protected space as name:cardinality pairs.
	attrs []attrCard
	// metrics are the per-metric alert limits armed beside ε.
	metrics []metricThreshold
	// fsync is the WAL policy; empty runs dfserve without -data-dir.
	fsync string
	// rate is the open-loop offered load in requests/second; 0 runs a
	// closed loop, one outstanding request per connection.
	rate float64
	mix  loadgen.Mix
	// plan installs a target-ε repair plan on every monitor in set-up
	// and fills the served stream, so decide traffic can run.
	plan bool
}

type attrCard struct {
	name string
	card int
}

// The workloads; BENCHMARK.json records the same reasons.
var workloads = []*workload{
	// WAL append+fsync does most of the work, the stream little (30
	// groups). Open loop because closed-loop fsync=batch throughput
	// ranged 1.7k-5.0k rps over six 10 s runs on a 2-core host, while
	// 1000 rps open loop held observe p50 within 0.79-0.89 ms.
	{
		name:  "ingest-durable",
		attrs: []attrCard{{"gender", 2}, {"race", 5}, {"income", 3}},
		fsync: "batch",
		rate:  1000,
		mix:   loadgen.Mix{Observe: 1},
	},
	// The incremental Watch check and the per-check metric recompute
	// over 512 groups do most of the work, the WAL none. Arming
	// worst_ratio alone took server CPU from 61-64 to 105-116 µs per
	// request.
	{
		name: "watch-wide",
		attrs: []attrCard{{"a0", 2}, {"a1", 2}, {"a2", 2}, {"a3", 2}, {"a4", 2},
			{"a5", 2}, {"a6", 2}, {"a7", 2}, {"a8", 2}},
		metrics: []metricThreshold{{Key: "worst_ratio", Threshold: 0.02}, {Key: "alpha_if", Threshold: 0.95}},
		mix:     loadgen.Mix{Observe: 1},
	},
	// Repair apply and served-stream writes run beside audit reads on
	// the same monitors and compete for 2 cores, so a gain for reads
	// that costs decide latency shows. -fsync os keeps the WAL in the
	// path without the disk's fsync noise.
	{
		name:  "gateway",
		attrs: []attrCard{{"gender", 2}, {"race", 5}, {"income", 3}},
		fsync: "os",
		mix:   loadgen.Mix{Decide: 0.8, Report: 0.2},
		plan:  true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v, or all)", name, names)
}

// space builds the workload's protected-attribute space; attribute a
// takes values a=0 … a=card-1.
func (w *workload) space() (*fairness.Space, error) {
	attrs := make([]fairness.Attr, len(w.attrs))
	for i, a := range w.attrs {
		vals := make([]string, a.card)
		for v := range vals {
			vals[v] = a.name + "=" + strconv.Itoa(v)
		}
		attrs[i] = fairness.Attr{Name: a.name, Values: vals}
	}
	return fairness.NewSpace(attrs...)
}

// loadConfig is the synthesis config of the timed traffic: connection c
// draws from substream (seed, c).
func (w *workload) loadConfig(space *fairness.Space, seed uint64) loadgen.WorkloadConfig {
	return loadgen.WorkloadConfig{
		Space:       space,
		Outcomes:    len(outcomeLabels),
		Monitors:    monitorCount,
		MonitorSkew: monitorSkew,
		GroupSkew:   groupSkew,
		BatchSize:   batchSize,
		Mix:         w.mix,
		BaseRate:    baseRate,
		RateSpread:  rateSpread,
		Seed:        seed,
	}
}

// Seeds of the set-up fill and the verify sequence are derived from the
// workload seed so they never share a substream with the timed traffic.
const (
	fillSalt   = 0x9e3779b97f4a7c15
	verifySalt = 0xc2b2ae3d27d4eb4f
)

// fillConfig synthesizes one monitor's set-up fill in fillBatch-sized
// batches (monitor m draws from substream (seed^fillSalt, m)).
func (w *workload) fillConfig(space *fairness.Space, seed uint64) loadgen.WorkloadConfig {
	return loadgen.WorkloadConfig{
		Space:      space,
		Outcomes:   len(outcomeLabels),
		Monitors:   1,
		GroupSkew:  groupSkew,
		BatchSize:  fillBatch,
		Mix:        loadgen.Mix{Observe: 1},
		BaseRate:   baseRate,
		RateSpread: rateSpread,
		Seed:       seed ^ fillSalt,
	}
}

// monitorSpec is the PUT /v1/monitors/{id} body the benchmark
// provisions with: dfserve's documented spec fields, owned here so the
// benchmark's monitor shape does not follow dfload's defaults.
type monitorSpec struct {
	Space        []attrSpec        `json:"space"`
	Outcomes     []string          `json:"outcomes"`
	Window       windowSpec        `json:"window"`
	Alpha        float64           `json:"alpha"`
	Threshold    float64           `json:"threshold,omitempty"`
	MinEffective float64           `json:"min_effective,omitempty"`
	Metrics      []metricThreshold `json:"metrics,omitempty"`
}

type attrSpec struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

type windowSpec struct {
	Size    int `json:"size"`
	Buckets int `json:"buckets"`
}

type metricThreshold struct {
	Key       string  `json:"key"`
	Threshold float64 `json:"threshold"`
}

func (w *workload) specJSON(space *fairness.Space) ([]byte, error) {
	spec := monitorSpec{
		Outcomes:     outcomeLabels,
		Window:       windowSpec{Size: windowSize, Buckets: windowBuckets},
		Alpha:        alpha,
		Threshold:    epsThreshold,
		MinEffective: minEffective,
		Metrics:      w.metrics,
	}
	for _, a := range space.Attrs() {
		spec.Space = append(spec.Space, attrSpec{Name: a.Name, Values: a.Values})
	}
	return json.Marshal(spec)
}

// newMonitor builds the in-process equivalent of a provisioned monitor:
// the same policy, estimator and thresholds dfserve builds from the spec.
func (w *workload) newMonitor(space *fairness.Space) (*fairness.Monitor, *fairness.Watch, error) {
	mon, err := fairness.NewSlidingMonitor(space, outcomeLabels, windowSize, windowBuckets, alpha)
	if err != nil {
		return nil, nil, err
	}
	thresholds := make([]fairness.MetricThreshold, len(w.metrics))
	for i, mt := range w.metrics {
		m, err := fairness.MetricByKey(mt.Key)
		if err != nil {
			return nil, nil, err
		}
		thresholds[i] = fairness.MetricThreshold{Metric: m, Threshold: mt.Threshold}
	}
	watch, err := fairness.NewWatch(mon, epsThreshold, minEffective, thresholds...)
	if err != nil {
		return nil, nil, err
	}
	return mon, watch, nil
}

// reportOptions are the audit options dfserve derives from reportQuery.
func reportOptions() []fairness.Option {
	return []fairness.Option{
		fairness.WithCredible(200, 1, 0.95),
		fairness.WithMetrics("worst_gap", "alpha_if"),
	}
}

// serverFlags are the dfserve flags the workload runs under, besides
// -addr; dataDir is used only when the workload is durable.
func (w *workload) serverFlags(dataDir string) []string {
	if w.fsync == "" {
		return nil
	}
	return []string{"-data-dir", dataDir, "-fsync", w.fsync}
}

func monitorID(m int) string { return "m" + strconv.Itoa(m) }
