package fairness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/repair"
)

// RepairPlanSchemaVersion identifies the JSON repair-plan schema. It is
// embedded in every marshaled RepairPlan as "schema_version" and only
// increments on breaking changes; additive fields do not bump it.
const RepairPlanSchemaVersion = 1

// ErrMaxMovementExceeded marks plans rejected by WithMaxMovement: the
// minimal-movement repair to the configured target would change a larger
// fraction of decisions than the caller is willing to accept. Callers
// can relax the target or the cap and retry.
var ErrMaxMovementExceeded = errors.New("fairness: repair movement exceeds the configured maximum")

// repairConfig is the resolved option set of a Repairer. Options
// validate their arguments at construction time, mirroring auditConfig.
type repairConfig struct {
	target      float64 // -1 = unset (WithTargetEpsilon is required)
	alpha       float64
	maxMovement float64 // 0 = no cap
	noLevelDown bool
	ladder      bool
	seed        uint64
	workers     int
}

// RepairOption configures a Repairer. Repairer-specific options
// (WithTargetEpsilon, WithMaxMovement, WithLevelingDownGuard) implement
// only this interface; the package-wide SharedOptions (WithAlpha,
// WithSeed, WithWorkers) satisfy it too.
type RepairOption interface {
	applyRepair(*repairConfig) error
}

type repairOption func(*repairConfig) error

func (f repairOption) applyRepair(c *repairConfig) error { return f(c) }

// WithTargetEpsilon sets the differential-fairness target the repaired
// mechanism must satisfy (Definition 3.1 at this ε). It is required:
// NewRepairer fails without it. ε = 0 demands exact parity of positive
// rates across every intersection.
func WithTargetEpsilon(eps float64) RepairOption {
	return repairOption(func(c *repairConfig) error {
		if !(eps >= 0) || math.IsInf(eps, 0) {
			return fmt.Errorf("fairness: WithTargetEpsilon(%v): target epsilon must be finite and >= 0", eps)
		}
		c.target = eps
		return nil
	})
}

// WithMaxMovement caps the expected fraction of decisions a plan may
// change, in (0, 1]. A plan whose minimal movement exceeds the cap fails
// with an error wrapping ErrMaxMovementExceeded instead of silently
// rewriting more of the decision stream than the caller budgeted for.
func WithMaxMovement(frac float64) RepairOption {
	return repairOption(func(c *repairConfig) error {
		if !(frac > 0 && frac <= 1) || math.IsNaN(frac) {
			return fmt.Errorf("fairness: WithMaxMovement(%v): cap must be in (0, 1]", frac)
		}
		c.maxMovement = frac
		return nil
	})
}

// WithLevelingDownGuard constrains plans so that no group's positive
// rate is ever lowered — repairs only raise worse-off groups ("fair
// without leveling down"). Guarded plans cost at least as much movement
// as unconstrained ones, and a group already at rate 1 forces every
// group to 1; the plan's LevelingDown field is always 0 under the guard.
func WithLevelingDownGuard(on bool) RepairOption {
	return repairOption(func(c *repairConfig) error { c.noLevelDown = on; return nil })
}

// WithRepairLadder controls whether plans include the per-attribute-
// subset before/after ε ladder (on by default). The ladder costs one
// marginalization pair per nonempty attribute subset, computed in
// parallel on the worker pool.
func WithRepairLadder(on bool) RepairOption {
	return repairOption(func(c *repairConfig) error { c.ladder = on; return nil })
}

// RepairPlanGroup is one group's prescription in a RepairPlan.
type RepairPlanGroup struct {
	// Group is the human-readable intersection label; GroupIndex its
	// row-major index in the protected space (the index decision batches
	// use).
	Group      string    `json:"group"`
	GroupIndex int       `json:"group_index"`
	Weight     JSONFloat `json:"weight"`
	OldRate    JSONFloat `json:"old_rate"`
	NewRate    JSONFloat `json:"new_rate"`
	// FlipPosToNeg / FlipNegToPos are the randomized post-processing
	// mixing probabilities; at most one is nonzero.
	FlipPosToNeg JSONFloat `json:"flip_pos_to_neg"`
	FlipNegToPos JSONFloat `json:"flip_neg_to_pos"`
	// LevelingDown is max(0, old_rate − new_rate): the positive rate the
	// repair takes away from this group.
	LevelingDown JSONFloat `json:"leveling_down"`
}

// RepairLadderRow reports ε for one subset of the protected attributes
// before and after the repair — Theorem 3.2 in action: repairing the
// full intersection repairs every marginal too.
type RepairLadderRow struct {
	Attrs         []string  `json:"attrs"`
	EpsilonBefore JSONFloat `json:"epsilon_before"`
	EpsilonAfter  JSONFloat `json:"epsilon_after"`
}

// RepairPlan is the complete, versioned result of one Repairer.Plan: the
// feasible rate band, per-group prescriptions, movement and
// leveling-down accounting, and the before/after subset ladder. Its JSON
// form is a stable schema (RepairPlanSchemaVersion) with non-finite ε
// encoded via JSONFloat; identical inputs, options and seed produce
// byte-identical RenderJSON output regardless of GOMAXPROCS or worker
// count. A plan is self-contained: a decoded plan compiles into the same
// Applier as the plan the server computed.
type RepairPlan struct {
	SchemaVersion int `json:"schema_version"`
	// TargetEpsilon is the configured target; AchievedEpsilon the ε of
	// the repaired mechanism (at most the target, up to rounding);
	// EpsilonBefore the ε of the mechanism the plan was computed from.
	TargetEpsilon   JSONFloat `json:"target_epsilon"`
	EpsilonBefore   JSONFloat `json:"epsilon_before"`
	AchievedEpsilon JSONFloat `json:"achieved_epsilon"`
	Estimator       string    `json:"estimator"`
	Alpha           JSONFloat `json:"alpha"`
	// Observations is the total count mass the plan was computed from;
	// ExpectedChanged = Movement × Observations is the expected number of
	// those decisions a replay through the plan would change.
	Observations    JSONFloat `json:"observations"`
	NumGroups       int       `json:"num_groups"`
	PositiveOutcome string    `json:"positive_outcome"`
	// Lo and Hi bound the repaired positive rates.
	Lo JSONFloat `json:"lo"`
	Hi JSONFloat `json:"hi"`
	// Movement is the expected fraction of decisions changed.
	Movement        JSONFloat `json:"movement"`
	ExpectedChanged JSONFloat `json:"expected_changed"`
	// NoLevelingDown records whether the guard was on; LevelingDown is
	// the expected fraction of individuals whose positive decision the
	// repair takes away (0 under the guard).
	NoLevelingDown bool      `json:"no_leveling_down"`
	LevelingDown   JSONFloat `json:"leveling_down"`
	// Seed drives the deterministic decision randomization of Appliers
	// compiled from this plan.
	Seed   uint64            `json:"seed"`
	Groups []RepairPlanGroup `json:"groups"`
	Ladder []RepairLadderRow `json:"ladder,omitempty"`
}

// MarshalJSON pins schema_version so a zero-valued or hand-built plan
// still declares its schema.
func (p *RepairPlan) MarshalJSON() ([]byte, error) {
	type plain RepairPlan
	q := plain(*p)
	q.SchemaVersion = RepairPlanSchemaVersion
	return json.Marshal(&q)
}

// RenderJSON writes the plan as indented JSON (the stable schema) with a
// trailing newline; byte-identical for identical plans.
func (p *RepairPlan) RenderJSON(w io.Writer) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Applier compiles the plan into a batched decision post-processor. The
// plan is self-contained, so this works equally on plans computed in
// process and plans decoded from JSON.
func (p *RepairPlan) Applier() (*Applier, error) {
	inner := repair.Plan{
		TargetEpsilon: float64(p.TargetEpsilon),
		Lo:            float64(p.Lo),
		Hi:            float64(p.Hi),
		Movement:      float64(p.Movement),
	}
	for _, g := range p.Groups {
		inner.Groups = append(inner.Groups, repair.GroupPlan{
			Group:        g.GroupIndex,
			Weight:       float64(g.Weight),
			OldRate:      float64(g.OldRate),
			NewRate:      float64(g.NewRate),
			FlipPosToNeg: float64(g.FlipPosToNeg),
			FlipNegToPos: float64(g.FlipNegToPos),
		})
	}
	app, err := inner.NewApplier(p.NumGroups, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("fairness: RepairPlan.Applier: %w", err)
	}
	return &Applier{inner: app}, nil
}

// Applier applies a RepairPlan to batches of live decisions — the
// serving-path half of closed-loop repair. It is safe for concurrent
// use: each Apply claims a contiguous ticket range from an internal
// counter and every decision's randomness is drawn from an independent
// (seed, ticket) substream, so results depend only on each decision's
// ticket, not on goroutine interleaving. The steady-state apply path
// performs no allocations.
type Applier struct {
	inner  *repair.Applier
	ticket atomic.Uint64
}

// Apply post-processes decisions[i] of groups[i] in place and returns
// the number of decisions changed. The batch claims the next
// len(groups) tickets; sequential callers therefore get the exact
// decision stream a single big batch would produce.
func (a *Applier) Apply(groups, decisions []int) (int, error) {
	n := uint64(len(groups))
	t := a.ticket.Add(n) - n
	return a.inner.ApplyBatch(t, groups, decisions)
}

// ApplyAt is Apply with an explicit ticket base, for callers that manage
// their own decision sequence numbers (replays, verification, sharded
// servers). It does not advance the internal counter.
func (a *Applier) ApplyAt(ticket uint64, groups, decisions []int) (int, error) {
	return a.inner.ApplyBatch(ticket, groups, decisions)
}

// Tickets returns the number of tickets claimed by Apply so far.
func (a *Applier) Tickets() uint64 { return a.ticket.Load() }

// Repairer is the closed-loop half of the package: where an Auditor
// measures ε, a Repairer computes how to change a deployed binary
// mechanism's decisions so Definition 3.1 holds at a target ε — the
// paper's §3.2 "alter the mechanism" recommendation as a first-class
// subsystem. Build it once with NewRepairer and call Plan per counts
// snapshot (an offline table, or a streaming Monitor's window); compile
// the plan with RepairPlan.Applier to post-process live decisions.
//
// A Repairer is immutable after construction; concurrent Plan calls are
// safe.
type Repairer struct {
	space    *core.Space
	outcomes []string
	cfg      repairConfig
}

// NewRepairer builds a repairer over the given protected space and
// binary outcome vocabulary (outcome index 1 is "positive").
// WithTargetEpsilon is required; option arguments are validated here.
func NewRepairer(space *Space, outcomes []string, opts ...RepairOption) (*Repairer, error) {
	if space == nil {
		return nil, fmt.Errorf("fairness: NewRepairer: nil space")
	}
	if len(outcomes) != 2 {
		return nil, fmt.Errorf("fairness: NewRepairer: repair needs exactly two outcomes, got %d", len(outcomes))
	}
	cfg := repairConfig{target: -1, ladder: true, seed: 1}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("fairness: NewRepairer: nil option")
		}
		if err := opt.applyRepair(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.target < 0 {
		return nil, fmt.Errorf("fairness: NewRepairer: WithTargetEpsilon is required")
	}
	return &Repairer{
		space:    space,
		outcomes: append([]string(nil), outcomes...),
		cfg:      cfg,
	}, nil
}

// MustRepairer is NewRepairer but panics on error; for tests and
// literals.
func MustRepairer(space *Space, outcomes []string, opts ...RepairOption) *Repairer {
	r, err := NewRepairer(space, outcomes, opts...)
	if err != nil {
		panic(err)
	}
	return r
}

// Plan computes the minimal-movement repair plan for one contingency
// table — any *Counts snapshot works, including windows captured from a
// streaming Monitor, which is what closes the monitoring loop. A table
// with fewer than two populated groups fails with an error wrapping
// ErrDegenerateSupport. ctx must be non-nil; it cancels the parallel
// ladder computation cooperatively.
func (r *Repairer) Plan(ctx context.Context, counts *Counts) (*RepairPlan, error) {
	if ctx == nil {
		return nil, fmt.Errorf("fairness: Repairer.Plan: nil ctx (pass context.Background() if no deadline applies)")
	}
	if counts == nil {
		return nil, fmt.Errorf("fairness: Repairer.Plan: nil counts")
	}
	if !sameAttrs(r.space, counts.Space()) || !sameStrings(r.outcomes, counts.Outcomes()) {
		return nil, fmt.Errorf("fairness: Repairer.Plan: counts do not match the repairer's space/outcomes")
	}
	cpt, err := counts.Estimate(r.cfg.alpha)
	if err != nil {
		return nil, err
	}
	return r.planCPT(ctx, cpt, counts.Total())
}

// PlanCPT computes the repair plan directly from a mechanism CPT (e.g. a
// model under design rather than an observed table). Observations is
// taken as the sum of the CPT's group weights. ctx must be non-nil.
func (r *Repairer) PlanCPT(ctx context.Context, cpt *CPT) (*RepairPlan, error) {
	if ctx == nil {
		return nil, fmt.Errorf("fairness: Repairer.PlanCPT: nil ctx (pass context.Background() if no deadline applies)")
	}
	if cpt == nil {
		return nil, fmt.Errorf("fairness: Repairer.PlanCPT: nil CPT")
	}
	if !sameAttrs(r.space, cpt.Space()) || !sameStrings(r.outcomes, cpt.Outcomes()) {
		return nil, fmt.Errorf("fairness: Repairer.PlanCPT: CPT does not match the repairer's space/outcomes")
	}
	var total float64
	for g := 0; g < cpt.Space().Size(); g++ {
		total += cpt.Weight(g)
	}
	return r.planCPT(ctx, cpt, total)
}

// PlanMonitor snapshots a streaming monitor's current effective counts
// and computes the plan from them: the "ε breach detected → compute a
// repair" step of the closed loop. The monitor must share the repairer's
// space and outcomes. ctx must be non-nil.
func (r *Repairer) PlanMonitor(ctx context.Context, m *Monitor) (*RepairPlan, error) {
	if m == nil {
		return nil, fmt.Errorf("fairness: Repairer.PlanMonitor: nil monitor")
	}
	snap, err := m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("fairness: Repairer.PlanMonitor: %w", err)
	}
	return r.Plan(ctx, snap)
}

func (r *Repairer) planCPT(ctx context.Context, cpt *core.CPT, observations float64) (*RepairPlan, error) {
	cfg := r.cfg
	before, err := core.Epsilon(cpt)
	if err != nil {
		return nil, fmt.Errorf("fairness: repair: %w", err)
	}
	var inner repair.Plan
	if cfg.noLevelDown {
		inner, err = repair.BinaryNoLevelingDown(cpt, cfg.target)
	} else {
		inner, err = repair.Binary(cpt, cfg.target)
	}
	if err != nil {
		return nil, fmt.Errorf("fairness: repair: %w", err)
	}
	if cfg.maxMovement > 0 && inner.Movement > cfg.maxMovement {
		return nil, fmt.Errorf("fairness: repair: plan would change %.2f%% of decisions, cap is %.2f%%: %w",
			100*inner.Movement, 100*cfg.maxMovement, ErrMaxMovementExceeded)
	}
	repaired, err := inner.Apply(cpt)
	if err != nil {
		return nil, fmt.Errorf("fairness: repair: %w", err)
	}
	after, err := core.Epsilon(repaired)
	if err != nil {
		return nil, fmt.Errorf("fairness: repair: %w", err)
	}

	estimator := "empirical (Eq. 6)"
	if cfg.alpha > 0 {
		estimator = fmt.Sprintf("Dirichlet-smoothed, alpha=%g (Eq. 7)", cfg.alpha)
	}
	plan := &RepairPlan{
		SchemaVersion:   RepairPlanSchemaVersion,
		TargetEpsilon:   JSONFloat(cfg.target),
		EpsilonBefore:   JSONFloat(before.Epsilon),
		AchievedEpsilon: JSONFloat(after.Epsilon),
		Estimator:       estimator,
		Alpha:           JSONFloat(cfg.alpha),
		Observations:    JSONFloat(observations),
		NumGroups:       r.space.Size(),
		PositiveOutcome: r.outcomes[1],
		Lo:              JSONFloat(inner.Lo),
		Hi:              JSONFloat(inner.Hi),
		Movement:        JSONFloat(inner.Movement),
		ExpectedChanged: JSONFloat(inner.Movement * observations),
		NoLevelingDown:  cfg.noLevelDown,
		LevelingDown:    JSONFloat(inner.LevelingDown),
		Seed:            cfg.seed,
	}
	for _, gp := range inner.Groups {
		plan.Groups = append(plan.Groups, RepairPlanGroup{
			Group:        r.space.Label(gp.Group),
			GroupIndex:   gp.Group,
			Weight:       JSONFloat(gp.Weight),
			OldRate:      JSONFloat(gp.OldRate),
			NewRate:      JSONFloat(gp.NewRate),
			FlipPosToNeg: JSONFloat(gp.FlipPosToNeg),
			FlipNegToPos: JSONFloat(gp.FlipNegToPos),
			LevelingDown: JSONFloat(math.Max(0, gp.OldRate-gp.NewRate)),
		})
	}
	if cfg.ladder {
		plan.Ladder, err = r.ladder(ctx, cpt, repaired)
		if err != nil {
			return nil, fmt.Errorf("fairness: repair ladder: %w", err)
		}
	}
	return plan, nil
}

// ladder measures ε for every nonempty attribute subset of both the
// original and the repaired mechanism, marginalizing the CPTs in
// parallel on the worker pool (internal/par): subsets are independent,
// and results land in slot-indexed rows, so the ladder is bit-identical
// regardless of GOMAXPROCS or worker count. A subset whose marginal
// collapses to a single populated group has nothing to compare and
// reports ε = 0 (a one-population margin is trivially fair).
func (r *Repairer) ladder(ctx context.Context, beforeCPT, afterCPT *core.CPT) ([]RepairLadderRow, error) {
	names := r.space.SubsetNames()
	rows := make([]RepairLadderRow, len(names))
	epsOf := func(c *core.CPT, subset []string) (JSONFloat, error) {
		m, err := c.Marginalize(subset...)
		if err != nil {
			return 0, err
		}
		res, err := core.Epsilon(m)
		if err != nil {
			if errors.Is(err, core.ErrDegenerateSupport) {
				return 0, nil
			}
			return 0, err
		}
		return JSONFloat(res.Epsilon), nil
	}
	err := par.DoCtx(ctx, r.cfg.workers, len(names), func() struct{} { return struct{}{} },
		func(_ struct{}, i int) error {
			before, err := epsOf(beforeCPT, names[i])
			if err != nil {
				return fmt.Errorf("subset %v: %w", names[i], err)
			}
			after, err := epsOf(afterCPT, names[i])
			if err != nil {
				return fmt.Errorf("subset %v: %w", names[i], err)
			}
			rows[i] = RepairLadderRow{Attrs: names[i], EpsilonBefore: before, EpsilonAfter: after}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ErrDegenerateSupport marks tables with fewer than two populated
// groups — nothing to compare, so neither ε nor a repair plan is
// defined. Re-exported so callers can errors.Is against the public
// package alone.
var ErrDegenerateSupport = core.ErrDegenerateSupport
