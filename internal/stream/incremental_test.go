package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
	"repro/internal/rng"
)

// The incremental-ε property suite: the incremental engine's contract is
// that Check ≡ CheckFull (bit-identical for the integer-count window
// policies, within tight relative tolerance for exponential decay) and
// EpsilonSubsets ≡ core.EpsilonSubsetsCounts over a snapshot, across
// every policy, estimator, shard count, ingest interleaving, log
// overflow, periodic rebuild, and a WriteState/ReadState round trip.

func incTestSpace(t *testing.T) *core.Space {
	t.Helper()
	// Mixed arities so the subset projection arithmetic can't pass by
	// accident of uniform strides.
	return core.MustSpace(
		core.Attr{Name: "a", Values: []string{"0", "1"}},
		core.Attr{Name: "b", Values: []string{"x", "y", "z"}},
		core.Attr{Name: "c", Values: []string{"p", "q"}},
	)
}

// sameAlert compares two alerts bit-exactly.
func sameAlert(t *testing.T, ctx string, inc, full *Alert) {
	t.Helper()
	if (inc == nil) != (full == nil) {
		t.Fatalf("%s: alert mismatch: incremental %v, full %v", ctx, inc, full)
	}
	if inc == nil {
		return
	}
	if inc.Metric != full.Metric || math.Float64bits(inc.Epsilon) != math.Float64bits(full.Epsilon) ||
		inc.Witness != full.Witness || inc.SeenAt != full.SeenAt ||
		inc.Threshold != full.Threshold {
		t.Fatalf("%s: alert mismatch:\n  incremental %+v\n  full        %+v", ctx, inc, full)
	}
}

// checkBoth runs the incremental and full checks and asserts bit
// equality (window policies). Returns the incremental pair for callers
// that want to assert on the trajectory.
func checkBoth(t *testing.T, ctx string, w *Watch) (*Alert, float64) {
	t.Helper()
	ai, ei, erri := w.Check()
	af, ef, errf := w.CheckFull()
	if (erri == nil) != (errf == nil) {
		t.Fatalf("%s: error mismatch: incremental %v, full %v", ctx, erri, errf)
	}
	if math.Float64bits(ei) != math.Float64bits(ef) {
		t.Fatalf("%s: effective mass mismatch: incremental %v, full %v", ctx, ei, ef)
	}
	sameAlert(t, ctx, ai, af)
	return ai, ei
}

// checkBothExp is checkBoth under relative tolerance, for the
// exponential policy whose incremental aggregate accumulates weights in
// a different floating-point order than the shard merge.
func checkBothExp(t *testing.T, ctx string, w *Watch, tol float64) *Alert {
	t.Helper()
	ai, ei, erri := w.Check()
	af, ef, errf := w.CheckFull()
	if (erri == nil) != (errf == nil) {
		t.Fatalf("%s: error mismatch: incremental %v, full %v", ctx, erri, errf)
	}
	if !relEq(ei, ef, tol) {
		t.Fatalf("%s: effective mass mismatch: incremental %v, full %v", ctx, ei, ef)
	}
	if (ai == nil) != (af == nil) {
		t.Fatalf("%s: alert mismatch: incremental %v, full %v", ctx, ai, af)
	}
	if ai != nil {
		if ai.Metric != af.Metric || ai.SeenAt != af.SeenAt || ai.Threshold != af.Threshold {
			t.Fatalf("%s: alert mismatch:\n  incremental %+v\n  full        %+v", ctx, ai, af)
		}
		if math.IsInf(ai.Epsilon, 1) != math.IsInf(af.Epsilon, 1) || (!math.IsInf(ai.Epsilon, 1) && !relEq(ai.Epsilon, af.Epsilon, tol)) {
			t.Fatalf("%s: alert ε mismatch: incremental %v, full %v", ctx, ai.Epsilon, af.Epsilon)
		}
		if ai.Witness != af.Witness {
			t.Fatalf("%s: alert witness mismatch: incremental %+v, full %+v", ctx, ai.Witness, af.Witness)
		}
	}
	return ai
}

func relEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*m
}

// drive feeds rounds of mixed ingest (checked/unchecked batches and
// single observations) with group-biased outcomes — group 0 never draws
// outcome 1, so the empirical estimator periodically hits ε = +Inf and
// evictions exercise support-loss transitions — comparing the
// incremental and full checks after every round. It returns how often
// each metric fired, keyed by Alert.Metric.
func drive(t *testing.T, w *Watch, r *rng.RNG, rounds int, exp bool) map[string]int {
	t.Helper()
	space := w.space
	fired := map[string]int{}
	for round := 0; round < rounds; round++ {
		n := 1 + r.Intn(96)
		groups := make([]int, n)
		outcomes := make([]int, n)
		for i := range groups {
			g := r.Intn(space.Size())
			y := 0
			if g != 0 && r.Float64() < 0.2+0.05*float64(g%7) {
				y = 1
			}
			groups[i], outcomes[i] = g, y
		}
		switch round % 4 {
		case 0:
			if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
				t.Fatal(err)
			}
		case 1:
			// Unchecked ingest: deltas pile up in the dirty logs until the
			// next check drains them all at once.
			if err := w.ObserveBatch(groups, outcomes); err != nil {
				t.Fatal(err)
			}
		case 2:
			for i := range groups {
				if _, err := w.ObserveChecked(groups[i], outcomes[i]); err != nil {
					t.Fatal(err)
				}
			}
		default:
			for i := range groups {
				if err := w.Observe(groups[i], outcomes[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var alert *Alert
		if exp {
			alert = checkBothExp(t, "round", w, 1e-9)
		} else {
			alert, _ = checkBoth(t, "round", w)
		}
		if alert != nil {
			fired[alert.Metric]++
		}
	}
	return fired
}

// TestIncrementalMatchesFullRecompute is the core cross-policy property:
// for every window policy × estimator × shard count, the incremental
// check agrees with the authoritative full recompute after arbitrary
// interleavings of checked and unchecked ingest — bit-identically for
// the integer-count window policies, within 1e-9 relative tolerance for
// exponential decay.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	space := incTestSpace(t)
	policies := []struct {
		name string
		pol  Policy
		exp  bool
	}{
		{"exponential", Exponential{HalfLife: 64}, true},
		{"tumbling", Tumbling{Window: 512}, false},
		{"sliding", Sliding{Window: 1024, Buckets: 4}, false},
	}
	seed := uint64(100)
	for _, pc := range policies {
		for _, alpha := range []float64{0, 0.5} {
			for _, shards := range []int{1, 4} {
				seed++
				name := pc.name
				if alpha > 0 {
					name += "/smoothed"
				} else {
					name += "/empirical"
				}
				if shards == 1 {
					name += "/shards=1"
				} else {
					name += "/shards=4"
				}
				t.Run(name, func(t *testing.T) {
					m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: alpha, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					w, err := NewWatch(m, 10, 25)
					if err != nil {
						t.Fatal(err)
					}
					drive(t, w, rng.New(seed), 60, pc.exp)
				})
			}
		}
	}
}

// TestIncrementalMetricsMatchFullRecompute extends the cross-policy
// property to metric thresholds armed beside ε: worst_ratio (lower is
// worse), alpha_if and demographic_parity, at limits the driven stream
// crosses part of the time, in rotating order. Check and CheckFull must
// agree on every
// alert — metric, value, witness, SeenAt, and so the first-breach order
// — bit-identically for the window policies and within 1e-9 relative
// for exponential decay, with ε armed first and with no ε at all.
func TestIncrementalMetricsMatchFullRecompute(t *testing.T) {
	space := incTestSpace(t)
	metrics := []MetricThreshold{
		{Metric: fairmetrics.WorstRatio{}, Threshold: 0.3},
		{Metric: fairmetrics.AlphaIntersectional{Alpha: 0.5}, Threshold: 0.6},
		{Metric: fairmetrics.DemographicParity{}, Threshold: 0.4},
	}
	fired := map[string]int{}
	seed := uint64(300)
	for _, pc := range []struct {
		name string
		pol  Policy
		exp  bool
	}{
		{"exponential", Exponential{HalfLife: 64}, true},
		{"tumbling", Tumbling{Window: 512}, false},
		{"sliding", Sliding{Window: 1024, Buckets: 4}, false},
	} {
		for _, alpha := range []float64{0, 0.5} {
			for _, shards := range []int{1, 4} {
				for _, eps := range []float64{0, 10} {
					seed++
					name := fmt.Sprintf("%s/alpha=%g/shards=%d/eps=%g", pc.name, alpha, shards, eps)
					t.Run(name, func(t *testing.T) {
						m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: alpha, Shards: shards})
						if err != nil {
							t.Fatal(err)
						}
						// Rotate the list per case so each metric is
						// sometimes the first to breach.
						rot := int(seed) % len(metrics)
						armed := append(append([]MetricThreshold(nil), metrics[rot:]...), metrics[:rot]...)
						w, err := NewWatch(m, eps, 25, armed...)
						if err != nil {
							t.Fatal(err)
						}
						for k, n := range drive(t, w, rng.New(seed), 60, pc.exp) {
							fired[k] += n
						}
					})
				}
			}
		}
	}
	for _, mt := range metrics {
		if fired[mt.Metric.Key()] == 0 {
			t.Errorf("%s never fired; its parity exercised nothing (fired: %v)", mt.Metric.Key(), fired)
		}
	}
	if fired[""] == 0 {
		t.Errorf("ε never fired ahead of the metrics (fired: %v)", fired)
	}
}

// TestMetricFiresAfterQuietEpsilon: a metric threshold listed after an
// ε threshold that does not fire still alerts, names itself, and matches
// the full recompute; the same watch without it stays quiet.
func TestMetricFiresAfterQuietEpsilon(t *testing.T) {
	space := incTestSpace(t)
	for _, pc := range []struct {
		name string
		pol  Policy
	}{
		{"tumbling", Tumbling{Window: 4096}},
		{"sliding", Sliding{Window: 4096, Buckets: 4}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			newWatch := func(metrics ...MetricThreshold) *Watch {
				m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: 1, Shards: 2})
				if err != nil {
					t.Fatal(err)
				}
				w, err := NewWatch(m, 10, 1, metrics...)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			quiet := newWatch()
			armed := newWatch(MetricThreshold{Metric: fairmetrics.WorstRatio{}, Threshold: 0.9})
			// Positive rates ramp from 0.2 to 0.75 across groups: a
			// worst-case ratio near 0.27, far under 0.9, while smoothed ε
			// stays far under 10.
			var groups, outcomes []int
			for g := 0; g < space.Size(); g++ {
				for i := 0; i < 40; i++ {
					y := 0
					if i < 8+2*g {
						y = 1
					}
					groups = append(groups, g)
					outcomes = append(outcomes, y)
				}
			}
			for _, w := range []*Watch{quiet, armed} {
				if err := w.ObserveBatch(groups, outcomes); err != nil {
					t.Fatal(err)
				}
			}
			if a, _ := checkBoth(t, "quiet", quiet); a != nil {
				t.Fatalf("ε-only watch fired: %+v", a)
			}
			a, _ := checkBoth(t, "armed", armed)
			if a == nil || a.Metric != "worst_ratio" || a.Threshold != 0.9 || !(a.Epsilon < 0.9) {
				t.Fatalf("alert = %+v, want a worst_ratio breach of 0.9", a)
			}
			if a.SeenAt != len(groups) {
				t.Errorf("SeenAt = %d, want %d", a.SeenAt, len(groups))
			}
		})
	}
}

// TestIncrementalAlertParity drives a heavily biased stream through a
// low threshold so alerts actually fire, and asserts the incremental and
// full checks agree on every alert's ε, witness and SeenAt.
func TestIncrementalAlertParity(t *testing.T) {
	space := incTestSpace(t)
	for _, pc := range []struct {
		name string
		pol  Policy
	}{
		{"tumbling", Tumbling{Window: 256}},
		{"sliding", Sliding{Window: 512, Buckets: 4}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: 0.5, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWatch(m, 0.05, 10)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(7)
			fired := 0
			for round := 0; round < 80; round++ {
				n := 1 + r.Intn(48)
				groups := make([]int, n)
				outcomes := make([]int, n)
				for i := range groups {
					g := r.Intn(space.Size())
					y := 0
					if r.Float64() < 0.1+0.7*float64(g)/float64(space.Size()) {
						y = 1
					}
					groups[i], outcomes[i] = g, y
				}
				if err := w.ObserveBatch(groups, outcomes); err != nil {
					t.Fatal(err)
				}
				ai, _ := checkBoth(t, pc.name, w)
				if ai != nil {
					fired++
				}
			}
			if fired == 0 {
				t.Fatal("threshold never fired; the parity assertion exercised nothing")
			}
		})
	}
}

// TestIncrementalLogOverflowRebuilds shrinks the dirty logs far below
// the batch size, so every check finds overflowed logs and takes the
// rebuild-from-shard-state path; results must remain bit-identical.
func TestIncrementalLogOverflowRebuilds(t *testing.T) {
	space := incTestSpace(t)
	m, err := New(space, []string{"no", "yes"}, Config{Policy: Sliding{Window: 512, Buckets: 4}, Alpha: 0.5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatch(m, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a consumer whose logs hold only 8 entries.
	m.incMu.Lock()
	m.inc = newIncEngine(m, 8, defaultRebuildEvery)
	m.eng.enableDirty(8)
	m.incMu.Unlock()

	r := rng.New(21)
	overflowed := false
	for round := 0; round < 40; round++ {
		groups := make([]int, 64)
		outcomes := make([]int, 64)
		for i := range groups {
			groups[i] = r.Intn(space.Size())
			outcomes[i] = r.Intn(2)
		}
		if err := w.ObserveBatch(groups, outcomes); err != nil {
			t.Fatal(err)
		}
		// A 64-entry batch into 8-entry logs must overflow at least one.
		if eng, ok := m.eng.(*winEngine); ok {
			for i := range eng.shards {
				eng.shards[i].mu.Lock()
				overflowed = overflowed || eng.shards[i].log.overflow
				eng.shards[i].mu.Unlock()
			}
		}
		checkBoth(t, "overflow", w)
	}
	if !overflowed {
		t.Fatal("no log ever overflowed; the rebuild path exercised nothing")
	}
}

// TestIncrementalPeriodicRebuild forces the drift-bounding rebuild every
// few drains and asserts it is invisible to callers.
func TestIncrementalPeriodicRebuild(t *testing.T) {
	space := incTestSpace(t)
	for _, pc := range []struct {
		name string
		pol  Policy
		exp  bool
	}{
		{"exponential", Exponential{HalfLife: 128}, true},
		{"sliding", Sliding{Window: 512, Buckets: 4}, false},
	} {
		t.Run(pc.name, func(t *testing.T) {
			m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: 1, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWatch(m, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			inc := m.ensureInc()
			inc.mu.Lock()
			inc.rebuildEvery = 3
			inc.mu.Unlock()
			drive(t, w, rng.New(33), 40, pc.exp)
		})
	}
}

// ladderOf is EpsilonSubsets into a fresh counts table.
func ladderOf(m *Monitor) ([]core.SubsetEpsilon, error) {
	return m.EpsilonSubsets(core.MustCounts(m.space, m.outcomes))
}

// TestEpsilonSubsetsMatchesCore pins the incremental subset ladder
// against core.EpsilonSubsetsCounts over a simultaneous snapshot:
// same order, same ε bits, same witnesses, same marginal spaces — across
// repeated reports with evictions in between.
func TestEpsilonSubsetsMatchesCore(t *testing.T) {
	space := incTestSpace(t)
	for _, pc := range []struct {
		name string
		pol  Policy
	}{
		{"tumbling", Tumbling{Window: 4096}},
		{"sliding", Sliding{Window: 1024, Buckets: 4}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			for _, alpha := range []float64{0.5, 1} {
				m, err := New(space, []string{"no", "yes"}, Config{Policy: pc.pol, Alpha: alpha, Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(55)
				for round := 0; round < 12; round++ {
					// Populate every group so no subset is degenerate, then
					// add random mass on top.
					for g := 0; g < space.Size(); g++ {
						for y := 0; y < 2; y++ {
							if err := m.Observe(g, y); err != nil {
								t.Fatal(err)
							}
						}
					}
					groups := make([]int, 200)
					outcomes := make([]int, 200)
					for i := range groups {
						groups[i] = r.Intn(space.Size())
						outcomes[i] = r.Intn(2)
					}
					if err := m.ObserveBatch(groups, outcomes); err != nil {
						t.Fatal(err)
					}
					measured := core.MustCounts(space, m.outcomes)
					ladder, err := m.EpsilonSubsets(measured)
					if err != nil {
						t.Fatal(err)
					}
					snap, err := m.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(measured.Cells(), snap.Cells()) {
						t.Fatal("EpsilonSubsets filled counts that differ from the snapshot")
					}
					want, err := core.EpsilonSubsetsCounts(snap, alpha)
					if err != nil {
						t.Fatal(err)
					}
					compareLadders(t, ladder, want)
				}
			}
		})
	}
}

func compareLadders(t *testing.T, got, want []core.SubsetEpsilon) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ladder length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("ladder[%d] subset %q, want %q", i, got[i].Key(), want[i].Key())
		}
		g, w := got[i].Result, want[i].Result
		if math.Float64bits(g.Epsilon) != math.Float64bits(w.Epsilon) ||
			g.Witness != w.Witness || g.Finite != w.Finite {
			t.Fatalf("ladder[%d] (%s):\n  incremental %+v\n  snapshot    %+v",
				i, got[i].Key(), g, w)
		}
		if got[i].Space.Size() != want[i].Space.Size() {
			t.Fatalf("ladder[%d] (%s) space size %d, want %d",
				i, got[i].Key(), got[i].Space.Size(), want[i].Space.Size())
		}
	}
}

// TestEpsilonSubsetsExponentialUnavailable: the smoothed estimator is
// not invariant under decay's uniform rescale, so the exponential policy
// must refuse the incremental ladder rather than return a wrong one.
func TestEpsilonSubsetsExponentialUnavailable(t *testing.T) {
	m, err := New(incTestSpace(t), []string{"no", "yes"}, Config{Policy: Exponential{HalfLife: 100}, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ladderOf(m); !errors.Is(err, ErrIncrementalUnavailable) {
		t.Fatalf("EpsilonSubsets on exponential policy = %v, want ErrIncrementalUnavailable", err)
	}
}

// TestReadStateRebuildsIncremental proves the incremental state is fully
// derived: after a WriteState/ReadState round trip into a monitor whose
// watch (and thus incremental engine) was attached *before* the restore,
// identical further ingest yields bit-identical checks and ladders on
// both sides.
func TestReadStateRebuildsIncremental(t *testing.T) {
	space := incTestSpace(t)
	cfg := Config{Policy: Sliding{Window: 1024, Buckets: 4}, Alpha: 0.5, Shards: 4}
	m1, err := New(space, []string{"no", "yes"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWatch(m1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	drive(t, w1, r, 20, false)
	if _, err := ladderOf(m1); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m1.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(space, []string{"no", "yes"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWatch(m2, 10, 0) // attach the incremental engine first
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.ReadState(&buf); err != nil {
		t.Fatal(err)
	}

	// Same further ingest into both monitors, sequentially, so tickets
	// land identically; every check and ladder must agree bit-for-bit.
	for round := 0; round < 15; round++ {
		n := 1 + r.Intn(64)
		groups := make([]int, n)
		outcomes := make([]int, n)
		for i := range groups {
			groups[i] = r.Intn(space.Size())
			outcomes[i] = r.Intn(2)
		}
		for _, w := range []*Watch{w1, w2} {
			if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
				t.Fatal(err)
			}
		}
		a1, e1, err1 := w1.Check()
		a2, e2, err2 := w2.Check()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("restored check error mismatch: %v vs %v", err1, err2)
		}
		if math.Float64bits(e1) != math.Float64bits(e2) {
			t.Fatalf("restored effective mass mismatch: %v vs %v", e1, e2)
		}
		sameAlert(t, "restored", a1, a2)
		checkBoth(t, "restored-vs-full", w2)

		l1, err1 := ladderOf(m1)
		l2, err2 := ladderOf(m2)
		if err1 != nil || err2 != nil {
			t.Fatalf("ladder errors: %v vs %v", err1, err2)
		}
		compareLadders(t, l2, l1)
	}
}

// TestIncrementalConcurrent hammers the watch from parallel writers with
// interleaved checked ingest and ladder reads, then quiesces and asserts
// the incremental state still agrees with the authoritative recompute —
// the shard-log / rebuild race surface under -race.
func TestIncrementalConcurrent(t *testing.T) {
	space := incTestSpace(t)
	m, err := New(space, []string{"no", "yes"}, Config{Policy: Sliding{Window: 4096, Buckets: 4}, Alpha: 0.5, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatch(m, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for round := 0; round < 50; round++ {
				groups := make([]int, 32)
				outcomes := make([]int, 32)
				for i := range groups {
					groups[i] = r.Intn(space.Size())
					outcomes[i] = r.Intn(2)
				}
				if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(1000 + wi))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, _, err := w.Check(); err != nil {
				t.Error(err)
				return
			}
			// A cold ladder may legitimately find a subset with fewer than
			// two supported groups; anything else is a real failure.
			if _, err := ladderOf(m); err != nil && !errors.Is(err, core.ErrDegenerateSupport) {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	checkBoth(t, "quiesced", w)
	ladder, err := ladderOf(m)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EpsilonSubsetsCounts(snap, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	compareLadders(t, ladder, want)
}

// TestMinEffectiveGateDefersRefresh pins the cold-start contract: a
// check below MinEffective pays only the log drain — the dirty-group set
// is left queued (no extremum maintenance, no estimator work) until the
// gate opens.
func TestMinEffectiveGateDefersRefresh(t *testing.T) {
	space := incTestSpace(t)
	m, err := New(space, []string{"no", "yes"}, Config{Policy: Sliding{Window: 1024, Buckets: 4}, Alpha: 0.5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatch(m, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		alert, err := w.ObserveChecked(i%space.Size(), i%2)
		if err != nil {
			t.Fatal(err)
		}
		if alert != nil {
			t.Fatal("alert below MinEffective")
		}
	}
	inc := m.ensureInc()
	inc.mu.Lock()
	nDirty := inc.full.nDirty
	inc.mu.Unlock()
	if nDirty == 0 {
		t.Fatal("dirty-group set drained below MinEffective: the gate is not skipping estimator work")
	}
	w.MinEffective = 1
	checkBoth(t, "gate-open", w)
	inc.mu.Lock()
	nDirty = inc.full.nDirty
	inc.mu.Unlock()
	if nDirty != 0 {
		t.Fatalf("%d dirty groups left after an above-gate check", nDirty)
	}
}

// TestEpsilonOnlyCheckBuildsNoCPT pins the fast path: on a window
// policy a check never materializes the aggregate's CPT while every
// armed metric has an extrema form (ε alone, or beside worst_gap,
// worst_ratio, alpha_if or demographic_parity); arming subgroup parity,
// which reads group masses, does.
func TestEpsilonOnlyCheckBuildsNoCPT(t *testing.T) {
	space := incTestSpace(t)
	for _, metric := range []core.Metric{
		nil,
		fairmetrics.WorstGap{},
		fairmetrics.WorstRatio{},
		fairmetrics.AlphaIntersectional{Alpha: 0.5},
		fairmetrics.DemographicParity{},
		fairmetrics.SubgroupParity{},
	} {
		var metrics []MetricThreshold
		if metric != nil {
			// Unreachable limits, so every check evaluates the metric.
			limit := 2.0
			if !metric.HigherIsWorse() {
				limit = -1
			}
			metrics = []MetricThreshold{{Metric: metric, Threshold: limit}}
		}
		m, err := New(space, []string{"no", "yes"}, Config{Policy: Sliding{Window: 1024, Buckets: 4}, Alpha: 0.5, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWatch(m, 10, 1, metrics...)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, w, rng.New(5), 10, false)
		inc := m.ensureInc()
		inc.mu.Lock()
		built := inc.cpt != nil
		inc.mu.Unlock()
		_, extrema := metric.(core.ExtremaMetric)
		if want := metric != nil && !extrema; built != want {
			t.Errorf("metric %v: CPT built = %v, want %v", metric, built, want)
		}
	}
}

// equivMetrics are the metrics evalLocked serves, by vocabulary size:
// every registered metric on a binary vocabulary, the ones defined on
// any vocabulary otherwise.
func equivMetrics(k int) []core.Metric {
	if k != 2 {
		return []core.Metric{core.DFEpsilon, fairmetrics.WorstGap{}}
	}
	return []core.Metric{
		core.DFEpsilon,
		fairmetrics.WorstGap{},
		fairmetrics.WorstRatio{},
		fairmetrics.AlphaIntersectional{Alpha: 0.5},
		fairmetrics.SubgroupParity{},
		fairmetrics.DemographicParity{},
	}
}

// evalPair holds one metric list's results through both paths.
type evalPair struct {
	inc, full       []core.MetricResult
	incErr, fullErr []error
}

// evalBoth measures every metric twice on a quiesced monitor: through
// the incremental engine's evalLocked after one sync, and through
// m.Eval on the CPT of a shard-merge snapshot at the same ticket (the
// CheckFull path).
func evalBoth(t *testing.T, m *Monitor, metrics []core.Metric) evalPair {
	t.Helper()
	var p evalPair
	now := m.ticket.Load()
	e := m.ensureInc()
	e.mu.Lock()
	e.sync(now)
	for _, mt := range metrics {
		r, err := e.evalLocked(mt, now)
		p.inc, p.incErr = append(p.inc, r), append(p.incErr, err)
	}
	e.mu.Unlock()
	snap := core.MustCounts(m.space, m.outcomes)
	cpt := core.MustCPT(m.space, m.outcomes)
	if err := m.eng.snapshotInto(snap, now); err != nil {
		t.Fatal(err)
	}
	if err := snap.EstimateInto(cpt, m.alpha); err != nil {
		t.Fatal(err)
	}
	for _, mt := range metrics {
		r, err := mt.Eval(cpt)
		p.full, p.fullErr = append(p.full, r), append(p.fullErr, err)
	}
	return p
}

// sameResults asserts that evalBoth's two sides agree metric by metric:
// the same error class (none, or degenerate support), the same Finite
// flag, and with tol 0 bit-identical values and equal witnesses. With
// tol > 0 (exponential decay, whose aggregate sums weights in another
// order than the shard merge) values agree within tol relative and
// witnesses are not compared: a binary table's two outcome gaps are
// equal in exact arithmetic, so rounding alone picks worst_gap's
// witness outcome. It returns how many results were degenerate.
func sameResults(t *testing.T, ctx string, metrics []core.Metric, tol float64, p evalPair) int {
	t.Helper()
	degenerate := 0
	for j, mt := range metrics {
		gi, gf := p.incErr[j], p.fullErr[j]
		if (gi == nil) != (gf == nil) || errors.Is(gi, core.ErrDegenerateSupport) != errors.Is(gf, core.ErrDegenerateSupport) {
			t.Fatalf("%s: %s: error mismatch: incremental %v, full %v", ctx, mt.Key(), gi, gf)
		}
		if gi != nil {
			if !errors.Is(gi, core.ErrDegenerateSupport) {
				t.Fatalf("%s: %s: unexpected error %v", ctx, mt.Key(), gi)
			}
			degenerate++
			continue
		}
		a, b := p.inc[j], p.full[j]
		same := math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Witness == b.Witness
		if tol > 0 {
			same = a.Value == b.Value || (!math.IsInf(a.Value, 0) && !math.IsInf(b.Value, 0) && relEq(a.Value, b.Value, tol))
		}
		if !same || a.Finite != b.Finite {
			t.Fatalf("%s: %s mismatch:\n  incremental %+v\n  full        %+v", ctx, mt.Key(), a, b)
		}
	}
	return degenerate
}

// ingestRound feeds one round of mixed ingest over k outcomes with
// group-biased rates: group 0 only ever draws outcome 0, so the
// empirical estimator keeps producing zero rates (ε = +Inf), and the
// positive rate climbs with the group index.
func ingestRound(t *testing.T, w *Watch, r *rng.RNG, k, round int) {
	t.Helper()
	n := 1 + r.Intn(96)
	groups := make([]int, n)
	outcomes := make([]int, n)
	for i := range groups {
		g := r.Intn(w.space.Size())
		y := 0
		if g != 0 && r.Float64() < 0.2+0.05*float64(g%7) {
			y = 1 + r.Intn(k-1)
		}
		groups[i], outcomes[i] = g, y
	}
	switch round % 3 {
	case 0:
		if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
			t.Fatal(err)
		}
	case 1:
		if err := w.ObserveBatch(groups, outcomes); err != nil {
			t.Fatal(err)
		}
	default:
		for i := range groups {
			if err := w.Observe(groups[i], outcomes[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExtremaEvalMatchesSnapshotCPT is the equivalence suite for the
// extrema-form metric path: after every round of ingest, evalLocked on
// the incremental aggregate — cached extrema for ε, worst_gap,
// worst_ratio, alpha_if and demographic_parity under a window policy,
// the pooled CPT for subgroup and for every metric under exponential
// decay — equals m.Eval on the CPT of a quiesced snapshot at the same
// ticket: bit-identical values, equal witnesses and the same degenerate
// error class for tumbling and sliding windows, within 1e-9 relative for
// exponential decay. Cold starts and tumbling resets pass through the
// 0- and 1-supported-group states.
func TestExtremaEvalMatchesSnapshotCPT(t *testing.T) {
	space := incTestSpace(t)
	seed := uint64(500)
	degenerate := 0
	for _, pc := range []struct {
		name string
		pol  Policy
		tol  float64
	}{
		{"tumbling", Tumbling{Window: 256}, 0},
		{"sliding", Sliding{Window: 512, Buckets: 4}, 0},
		{"exponential", Exponential{HalfLife: 64}, 1e-9},
	} {
		for _, outcomes := range [][]string{{"no", "yes"}, {"low", "mid", "high"}} {
			for _, alpha := range []float64{0, 0.5} {
				for _, shards := range []int{1, 4} {
					seed++
					name := fmt.Sprintf("%s/k=%d/alpha=%g/shards=%d", pc.name, len(outcomes), alpha, shards)
					t.Run(name, func(t *testing.T) {
						m, err := New(space, outcomes, Config{Policy: pc.pol, Alpha: alpha, Shards: shards})
						if err != nil {
							t.Fatal(err)
						}
						metrics := equivMetrics(len(outcomes))
						w, err := NewWatch(m, 0, 0, MetricThreshold{Metric: metrics[len(metrics)-1], Threshold: math.Inf(1)})
						if err != nil {
							t.Fatal(err)
						}
						degenerate += sameResults(t, "empty", metrics, pc.tol, evalBoth(t, m, metrics))
						r := rng.New(seed)
						for round := 0; round < 40; round++ {
							ingestRound(t, w, r, len(outcomes), round)
							ctx := fmt.Sprintf("round %d", round)
							degenerate += sameResults(t, ctx, metrics, pc.tol, evalBoth(t, m, metrics))
						}
					})
				}
			}
		}
	}
	if degenerate == 0 {
		t.Error("no degenerate-support state was compared")
	}
}

// TestExtremaEvalEdgeCases pins the extrema path's values on the edge
// tables, and their agreement with the CPT path, for both window
// policies: one supported group (degenerate for every metric), no
// positive outcome anywhere at alpha 0 (worst_ratio = 1, every gap 0,
// ε = 0), and a zero rate against a positive one at alpha 0 (ε = +Inf).
func TestExtremaEvalEdgeCases(t *testing.T) {
	space := incTestSpace(t)
	metrics := equivMetrics(2)
	for _, pol := range []Policy{Tumbling{Window: 4096}, Sliding{Window: 4096, Buckets: 4}} {
		newMon := func() (*Monitor, *Watch) {
			m, err := New(space, []string{"no", "yes"}, Config{Policy: pol, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWatch(m, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			return m, w
		}
		value := func(ctx string, m *Monitor, key string) float64 {
			t.Helper()
			p := evalBoth(t, m, metrics)
			if n := sameResults(t, ctx, metrics, 0, p); n != 0 {
				t.Fatalf("%s: %d degenerate results", ctx, n)
			}
			for j, mt := range metrics {
				if mt.Key() == key {
					return p.inc[j].Value
				}
			}
			t.Fatalf("no metric %s", key)
			return 0
		}

		// One supported group: nothing to compare, under every metric.
		m, w := newMon()
		if err := w.ObserveBatch([]int{3, 3, 3}, []int{0, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if n := sameResults(t, "one group", metrics, 0, evalBoth(t, m, metrics)); n != len(metrics) {
			t.Fatalf("one supported group: %d of %d metrics degenerate", n, len(metrics))
		}

		// No positive outcome anywhere.
		m, w = newMon()
		if err := w.ObserveBatch([]int{0, 1, 2, 5, 5}, []int{0, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		for key, want := range map[string]float64{"worst_ratio": 1, "epsilon": 0, "worst_gap": 0, "demographic_parity": 0, "alpha_if": 0.5} {
			if got := value("no positive", m, key); got != want {
				t.Errorf("%T no positive outcome: %s = %v, want %v", pol, key, got, want)
			}
		}

		// A zero rate against a positive one.
		m, w = newMon()
		if err := w.ObserveBatch([]int{0, 0, 1, 1}, []int{0, 0, 0, 1}); err != nil {
			t.Fatal(err)
		}
		if got := value("zero rate", m, "epsilon"); !math.IsInf(got, 1) {
			t.Errorf("%T zero against positive rate: ε = %v, want +Inf", pol, got)
		}
		if got := value("zero rate", m, "worst_ratio"); got != 0 {
			t.Errorf("%T zero against positive rate: worst_ratio = %v, want 0", pol, got)
		}
	}
}
