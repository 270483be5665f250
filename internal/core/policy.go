package core

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
)

// Config carries the runtime parameters of the control loop (Table 2 /
// Table 3 of the paper).
type Config struct {
	// Metric selects the bottleneck-identification latency metric.
	Metric Metric
	// BalanceThreshold suppresses reallocation when the metric spread
	// between the slowest and fastest instance falls below it, avoiding
	// oscillation (§8.1; 1 s in Table 2).
	BalanceThreshold time.Duration
	// WithdrawInterval is how often underutilized instances are considered
	// for withdraw (150 s in Table 2). Zero disables withdraw.
	WithdrawInterval time.Duration
	// WithdrawThreshold is the utilization below which an instance counts as
	// underutilized (0.2 in §6.2).
	WithdrawThreshold float64
	// DisableSplitClone restores the literal Algorithm 1 (no split-clone
	// refinement); see DESIGN.md §5b. For ablation studies.
	DisableSplitClone bool
}

// DefaultConfig returns the Table 2 configuration.
func DefaultConfig() Config {
	return Config{
		Metric:            MetricExpectedDelay,
		BalanceThreshold:  time.Second,
		WithdrawInterval:  150 * time.Second,
		WithdrawThreshold: 0.2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BalanceThreshold < 0 {
		return fmt.Errorf("core: negative balance threshold")
	}
	if c.WithdrawInterval < 0 {
		return fmt.Errorf("core: negative withdraw interval")
	}
	if c.WithdrawThreshold < 0 || c.WithdrawThreshold > 1 {
		return fmt.Errorf("core: withdraw threshold outside [0,1]")
	}
	return nil
}

// Policy is one latency-mitigation strategy invoked at every adjust
// interval. Every Adjust in the tree is a call to Tick.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Adjust runs one control interval.
	Adjust(sys System, agg *Aggregator) BoostOutcome
}

// Planner is the decision itself: Plan computes one interval's mutation
// program, and the outcome it would report, as a pure function of what it
// reads through sys and stats — it actuates nothing, records nothing and
// needs no setter. Callers inspect, dry-run or replay the plan, or hand it
// to Tick.
//
// PowerChief's periodic withdraw epoch fires only through Adjust — a Plan
// call at an epoch boundary captures the boost decision alone.
//
// The plan, its actions and any instance Plan hands out are valid until the
// planner's next Plan: the core planners plan into one PlanView each and
// reuse its memory (DESIGN.md §5l). A caller that keeps a plan past that
// keeps its EncodePlan form, and a planner is driven by one goroutine.
type Planner interface {
	Name() string
	Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome)
}

// Tick is the one control tick: capture the decision inputs when a tap is
// attached, plan, apply through the validating, rolling-back executor, fold
// the apply result into the outcome — a failed plan reports BoostNone, an
// instance boost picks up the realized clone's name — and record: one
// DecisionRecord stamped with the holder's next tick seq, rendered into its
// log and handed to its tap. A tapped tick plans from its capture, which
// read the aggregator at the same clock with no event in between; a nil
// aggregator means no statistics at all, a nil holder records nothing.
func Tick(p Planner, r *Recorded, sys System, agg *Aggregator) (BoostOutcome, ApplyResult) {
	var stats StatsReader
	if agg != nil {
		stats = agg
	}
	var snap *Snapshot
	if r != nil && r.tap != nil {
		snap = CaptureSnapshot(sys, stats)
		if stats != nil {
			stats = snap
		}
	}
	var now time.Duration
	var budget, draw cmp.Watts
	if r != nil && r.log != nil {
		now, budget, draw = sys.Now(), sys.Budget(), sys.Draw()
	}
	plan, out := p.Plan(sys, stats)
	res := Executor{}.Apply(sys, agg, plan)
	if res.Err != nil {
		out = BoostOutcome{Kind: BoostNone, Target: out.Target}
	} else if out.Kind == BoostInstance && len(res.Clones) > 0 {
		out.NewInstance = res.Clones[len(res.Clones)-1]
	}
	if r == nil {
		return out, res
	}
	r.tick++
	if !r.recording() {
		return out, res
	}
	rec := DecisionRecord{Tick: r.tick, Snapshot: snap, Plan: EncodePlan(plan), Outcome: out, Withdraw: r.withdraw}
	r.withdraw = nil
	rec.note(plan, res)
	if r.log != nil {
		rec.audit(r.log, now, sys.PowerModel(), budget, draw)
	}
	if r.tap != nil {
		r.tap.RecordDecision(rec)
	}
	return out, res
}

// planBoost is the decision the three boosting policies share: identify
// (Equation 1), stop when the system is balanced, otherwise let decide plan
// the boost against the overlay — the policy's own view, reset to sys.
func planBoost(pv *PlanView, sys System, stats StatsReader, cfg Config, decide func(System, []Ranked) BoostOutcome) (*ActionPlan, BoostOutcome) {
	pv.Reset(sys)
	ranked := pv.Rank(cfg.Metric, stats)
	if len(ranked) == 0 || Spread(ranked) < cfg.BalanceThreshold {
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}
	pv.Decided()
	return pv.Take(), decide(pv, ranked)
}

// Static is the stage-agnostic baseline: the power budget is divided equally
// across stages at setup and never adjusted (§8.1).
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "baseline" }

// Plan implements Planner.
func (Static) Plan(System, StatsReader) (*ActionPlan, BoostOutcome) {
	return &ActionPlan{}, BoostOutcome{Kind: BoostNone}
}

// Adjust implements Policy.
func (s Static) Adjust(sys System, agg *Aggregator) BoostOutcome {
	out, _ := Tick(s, nil, sys, agg)
	return out
}

// FreqBoost is the pure frequency-boosting policy: every interval it raises
// the bottleneck's frequency as far as recycled power allows.
type FreqBoost struct {
	Cfg Config
	Recorded
	view PlanView
}

// NewFreqBoost builds the policy with the given configuration.
func NewFreqBoost(cfg Config) *FreqBoost { return &FreqBoost{Cfg: cfg} }

// Name implements Policy.
func (*FreqBoost) Name() string { return "freq-boost" }

// Plan implements Planner.
func (f *FreqBoost) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	return planBoost(&f.view, sys, stats, f.Cfg, Engine{}.FreqBoostToMax)
}

// Adjust implements Policy.
func (f *FreqBoost) Adjust(sys System, agg *Aggregator) BoostOutcome {
	out, _ := Tick(f, &f.Recorded, sys, agg)
	return out
}

// InstBoost is the pure instance-boosting policy: every interval it tries to
// clone the bottleneck, recycling power by slowing other instances down.
type InstBoost struct {
	Cfg Config
	Recorded
	view PlanView
}

// NewInstBoost builds the policy with the given configuration.
func NewInstBoost(cfg Config) *InstBoost { return &InstBoost{Cfg: cfg} }

// Name implements Policy.
func (*InstBoost) Name() string { return "inst-boost" }

// Plan implements Planner.
func (i *InstBoost) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	return planBoost(&i.view, sys, stats, i.Cfg, Engine{}.InstBoostAlways)
}

// Adjust implements Policy.
func (i *InstBoost) Adjust(sys System, agg *Aggregator) BoostOutcome {
	out, _ := Tick(i, &i.Recorded, sys, agg)
	return out
}

// PowerChief is the full adaptive policy: accurate bottleneck
// identification, the adaptive boosting decision engine, dynamic power
// recycling and instance withdraw, all under the power constraint.
type PowerChief struct {
	Cfg          Config
	lastWithdraw time.Duration
	withdrawInit bool
	Recorded
	view PlanView

	// Withdrawn counts instances withdrawn over the run.
	Withdrawn int
}

// NewPowerChief builds the policy with the given configuration.
func NewPowerChief(cfg Config) *PowerChief { return &PowerChief{Cfg: cfg} }

// Name implements Policy.
func (*PowerChief) Name() string { return "powerchief" }

// Plan implements Planner: the adaptive boosting decision (identify, then
// Algorithm 1 with recycling) captured as a plan. The periodic withdraw
// epoch is actuation-coupled — withdraws redistribute queues, and the boost
// decision must see the post-withdraw system — so it runs as its own plan
// inside Adjust, not here.
func (p *PowerChief) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	return planBoost(&p.view, sys, stats, p.Cfg, Engine{DisableSplitClone: p.Cfg.DisableSplitClone}.SelectBoosting)
}

// Adjust implements Policy: the §6.2 withdraw epoch when one is due, then
// the tick. The epoch goes first because the snapshot the tick records must
// be what Plan saw, and withdraws redistribute queues. The live system is
// ranked only on the tick whose epoch is due — PlanWithdrawEpoch needs live
// instances to pick redirect targets; on every other tick the one ranking
// is Plan's.
func (p *PowerChief) Adjust(sys System, agg *Aggregator) BoostOutcome {
	if !hasInstances(sys) {
		return BoostOutcome{Kind: BoostNone}
	}
	now := sys.Now()
	if !p.withdrawInit {
		// Anchor the first withdraw epoch at the first adjust.
		p.withdrawInit = true
		p.lastWithdraw = now
	} else if p.Cfg.WithdrawInterval > 0 && now-p.lastWithdraw >= p.Cfg.WithdrawInterval {
		ranked := Identifier{Metric: p.Cfg.Metric}.Rank(sys, agg)
		epoch := PlanWithdrawEpoch(sys, ranked, p.Cfg.WithdrawThreshold)
		res := Executor{}.Apply(sys, agg, epoch)
		p.Withdrawn += res.Withdrawn
		p.lastWithdraw = now
		if p.recording() { // withdraws lead the plan; the record carries those applied
			p.withdraw = EncodePlan(&ActionPlan{Actions: epoch.Actions[:res.Withdrawn]})
		}
	}
	out, _ := Tick(p, &p.Recorded, sys, agg)
	return out
}

// hasInstances reports whether any stage of the system has a live instance.
func hasInstances(sys System) bool {
	for _, st := range sys.Stages() {
		if len(st.Instances()) > 0 {
			return true
		}
	}
	return false
}
