package core

import (
	"fmt"
	"time"

	"powerchief/internal/telemetry"
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
// interval. Implementations decide against a PlanView and actuate through
// the Executor (plan/apply, DESIGN.md §5g); Adjust is the thin wrapper that
// runs both and reports what was done.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Adjust runs one control interval.
	Adjust(sys System, agg *Aggregator) BoostOutcome
}

// Planner is the pure decision half of a policy: Plan computes one
// interval's decision against a PlanView of the system and returns the
// mutation program plus the outcome the policy would report, without
// touching the deployment. Callers can inspect or dry-run the plan, or hand
// it to an Executor.
//
// PowerChief's periodic withdraw epoch fires only through Adjust — a Plan
// call at an epoch boundary captures the boost decision alone.
type Planner interface {
	Policy
	Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome)
}

// applyPlan actuates a decision and folds the apply result back into the
// outcome: a failed (rolled-back) plan reports BoostNone, and an instance
// boost picks up the realized clone's name.
func applyPlan(x Executor, sys System, agg *Aggregator, plan *ActionPlan, out BoostOutcome) BoostOutcome {
	res := x.Apply(sys, agg, plan)
	if res.Err != nil {
		return BoostOutcome{Kind: BoostNone, Target: out.Target}
	}
	if out.Kind == BoostInstance && len(res.Clones) > 0 {
		out.NewInstance = res.Clones[len(res.Clones)-1]
	}
	return out
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
func (Static) Adjust(System, *Aggregator) BoostOutcome { return BoostOutcome{Kind: BoostNone} }

// FreqBoost is the pure frequency-boosting policy: every interval it raises
// the bottleneck's frequency as far as recycled power allows.
type FreqBoost struct {
	Cfg    Config
	engine Engine
	audit  *telemetry.AuditLog
	tapHolder
}

// NewFreqBoost builds the policy with the given configuration.
func NewFreqBoost(cfg Config) *FreqBoost { return &FreqBoost{Cfg: cfg} }

// Name implements Policy.
func (*FreqBoost) Name() string { return "freq-boost" }

// SetAudit implements AuditSetter.
func (f *FreqBoost) SetAudit(a *telemetry.AuditLog) {
	f.audit = a
	f.engine.Audit = a
}

// Plan implements Planner.
func (f *FreqBoost) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	pv := NewPlanView(sys)
	ranked := Identifier{Metric: f.Cfg.Metric}.Rank(pv, stats)
	auditIdentify(f.audit, pv.Now(), ranked)
	if len(ranked) == 0 || Spread(ranked) < f.Cfg.BalanceThreshold {
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}
	out := f.engine.FreqBoostToMax(pv, ranked)
	pv.SetOutcome(out)
	return pv.Take(), out
}

// Adjust implements Policy.
func (f *FreqBoost) Adjust(sys System, agg *Aggregator) BoostOutcome {
	snap := f.capture(sys, agg)
	plan, out := f.Plan(sys, agg)
	out = applyPlan(Executor{Audit: f.audit}, sys, agg, plan, out)
	f.record(snap, plan, out)
	return out
}

// InstBoost is the pure instance-boosting policy: every interval it tries to
// clone the bottleneck, recycling power by slowing other instances down.
type InstBoost struct {
	Cfg    Config
	engine Engine
	audit  *telemetry.AuditLog
	tapHolder
}

// NewInstBoost builds the policy with the given configuration.
func NewInstBoost(cfg Config) *InstBoost { return &InstBoost{Cfg: cfg} }

// Name implements Policy.
func (*InstBoost) Name() string { return "inst-boost" }

// SetAudit implements AuditSetter.
func (i *InstBoost) SetAudit(a *telemetry.AuditLog) {
	i.audit = a
	i.engine.Audit = a
}

// Plan implements Planner.
func (i *InstBoost) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	pv := NewPlanView(sys)
	ranked := Identifier{Metric: i.Cfg.Metric}.Rank(pv, stats)
	auditIdentify(i.audit, pv.Now(), ranked)
	if len(ranked) == 0 || Spread(ranked) < i.Cfg.BalanceThreshold {
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}
	out := i.engine.InstBoostAlways(pv, ranked)
	pv.SetOutcome(out)
	return pv.Take(), out
}

// Adjust implements Policy.
func (i *InstBoost) Adjust(sys System, agg *Aggregator) BoostOutcome {
	snap := i.capture(sys, agg)
	plan, out := i.Plan(sys, agg)
	out = applyPlan(Executor{Audit: i.audit}, sys, agg, plan, out)
	i.record(snap, plan, out)
	return out
}

// PowerChief is the full adaptive policy: accurate bottleneck
// identification, the adaptive boosting decision engine, dynamic power
// recycling and instance withdraw, all under the power constraint.
type PowerChief struct {
	Cfg          Config
	engine       Engine
	audit        *telemetry.AuditLog
	lastWithdraw time.Duration
	withdrawInit bool
	tapHolder

	// Withdrawn counts instances withdrawn over the run.
	Withdrawn int
}

// NewPowerChief builds the policy with the given configuration.
func NewPowerChief(cfg Config) *PowerChief {
	return &PowerChief{Cfg: cfg, engine: Engine{DisableSplitClone: cfg.DisableSplitClone}}
}

// Name implements Policy.
func (*PowerChief) Name() string { return "powerchief" }

// SetAudit implements AuditSetter.
func (p *PowerChief) SetAudit(a *telemetry.AuditLog) {
	p.audit = a
	p.engine.Audit = a
}

// Plan implements Planner: the adaptive boosting decision (identify, then
// Algorithm 1 with recycling) captured as a plan. The periodic withdraw
// epoch is actuation-coupled — withdraws redistribute queues, and the boost
// decision must see the post-withdraw system — so it runs as its own plan
// inside Adjust, not here.
func (p *PowerChief) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	pv := NewPlanView(sys)
	ranked := Identifier{Metric: p.Cfg.Metric}.Rank(pv, stats)
	auditIdentify(p.audit, pv.Now(), ranked)
	if len(ranked) == 0 || Spread(ranked) < p.Cfg.BalanceThreshold {
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}
	out := p.engine.SelectBoosting(pv, ranked)
	pv.SetOutcome(out)
	return pv.Take(), out
}

// Adjust implements Policy. The live system is ranked only on the tick whose
// withdraw epoch is due — PlanWithdrawEpoch needs live instances to pick
// redirect targets; on every other tick the one ranking is Plan's.
func (p *PowerChief) Adjust(sys System, agg *Aggregator) BoostOutcome {
	if !hasInstances(sys) {
		return BoostOutcome{Kind: BoostNone}
	}
	now := sys.Now()
	x := Executor{Audit: p.audit}

	if !p.withdrawInit {
		// Anchor the first withdraw epoch at the first adjust.
		p.withdrawInit = true
		p.lastWithdraw = now
	} else if p.Cfg.WithdrawInterval > 0 && now-p.lastWithdraw >= p.Cfg.WithdrawInterval {
		ranked := Identifier{Metric: p.Cfg.Metric}.Rank(sys, agg)
		res := x.Apply(sys, agg, PlanWithdrawEpoch(sys, ranked, p.Cfg.WithdrawThreshold))
		p.Withdrawn += res.Withdrawn
		p.lastWithdraw = now
	}

	// Snapshot after the withdraw epoch: withdraws redistribute queues, and
	// the recorded decision inputs must be what Plan actually saw.
	snap := p.capture(sys, agg)
	plan, out := p.Plan(sys, agg)
	out = applyPlan(x, sys, agg, plan, out)
	p.record(snap, plan, out)
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
