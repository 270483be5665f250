package core

import (
	"fmt"

	"powerchief/internal/cmp"
	"powerchief/internal/telemetry"
)

// Executor actuates ActionPlans against the real system: it re-validates
// the plan's budget arithmetic, applies the actions in order, writes the
// audit trail, and — when an action fails mid-plan (an RPC error in the
// distributed runtime) — rolls the already-applied steps back in reverse
// order so the deployment lands on a consistent, budget-respecting level
// assignment instead of somewhere between two plans.
type Executor struct {
	// Audit, when set, receives the decision trail: the identification the
	// plan carries, recycle passes, withdraws, deboosts, relaunches, budget
	// grants and rollbacks.
	Audit *telemetry.AuditLog
}

// ApplyResult reports what one Apply did.
type ApplyResult struct {
	// Applied counts actions actuated (including those later rolled back).
	Applied int
	// Withdrawn counts instances withdrawn.
	Withdrawn int
	// Clones lists realized clone names in plan order.
	Clones []string
	// RolledBack reports that a mid-plan failure undid earlier steps.
	RolledBack bool
	// Err is the first actuation or validation failure, nil on success.
	Err error
}

// appliedStep remembers enough of one actuated action to undo it.
type appliedStep struct {
	act   Action
	real  Instance     // SetLevel target, or clone source
	clone Instance     // realized clone
	stage StageControl // clone's stage
}

// Validate replays the plan's budget arithmetic from the system's current
// draw, using the same acceptance test as the chip. It is exact against the
// deterministic simulator and advisory against live backends (whose own
// checks remain authoritative at apply time).
func (x Executor) Validate(sys System, plan *ActionPlan) error {
	if plan.Empty() {
		return nil
	}
	model := sys.PowerModel()
	budget := sys.Budget()
	drawn := sys.Draw()
	free := sys.FreeCores()
	for _, act := range plan.Actions {
		switch a := act.(type) {
		case *SetLevelAction:
			if !a.To.Valid() {
				return fmt.Errorf("core: plan validation: %s: invalid level", a.Describe())
			}
			delta := model.Power(a.To) - model.Power(a.From)
			if drawn+delta > budget+1e-9 {
				return fmt.Errorf("core: plan validation: %s: %w", a.Describe(), cmp.ErrBudgetExceeded)
			}
			drawn += delta
		case *CloneAction:
			if free <= 0 {
				return fmt.Errorf("core: plan validation: %s: %w", a.Describe(), cmp.ErrNoFreeCore)
			}
			p := model.Power(a.Level)
			if drawn+p > budget+1e-9 {
				return fmt.Errorf("core: plan validation: %s: %w", a.Describe(), cmp.ErrBudgetExceeded)
			}
			drawn += p
			free--
		case *WithdrawAction:
			drawn -= model.Power(a.Victim.Level())
			if drawn < 0 {
				drawn = 0
			}
			free++
		case *ResetEpochAction:
			// No power effect.
		case *SetBudgetAction:
			// Fleet-layer action: drawn is the sum of granted node budgets,
			// budget the cluster cap. Same acceptance test as the chip's.
			delta := a.To - a.From
			if a.To < 0 {
				return fmt.Errorf("core: plan validation: %s: negative budget", a.Describe())
			}
			if drawn+delta > budget+1e-9 {
				return fmt.Errorf("core: plan validation: %s: %w", a.Describe(), cmp.ErrBudgetExceeded)
			}
			drawn += delta
		default:
			return fmt.Errorf("core: plan validation: unknown action %T", act)
		}
	}
	return nil
}

// Apply validates and actuates the plan. The aggregator, when non-nil, has
// the statistics of withdrawn instances forgotten — the same bookkeeping the
// direct actuation path performed.
func (x Executor) Apply(sys System, agg *Aggregator, plan *ActionPlan) ApplyResult {
	var res ApplyResult
	if plan == nil {
		return res
	}
	auditIdentify(x.Audit, plan.identified)
	if err := x.Validate(sys, plan); err != nil {
		res.Err = err
		return res
	}

	realized := make(map[*planInstance]Instance)
	resolve := func(in Instance) (Instance, error) {
		pi, ok := in.(*planInstance)
		if !ok {
			return in, nil
		}
		if pi.under != nil {
			return pi.under, nil
		}
		if r := realized[pi]; r != nil {
			return r, nil
		}
		return nil, fmt.Errorf("core: plan references clone %s before it is launched", pi.Name())
	}

	withdrawn := make(map[string]bool)
	var steps []appliedStep
	nextSpan := 0
	emitSpans := func(upto int) {
		for nextSpan < len(plan.recycles) && plan.recycles[nextSpan].end <= upto {
			x.auditRecycle(sys, plan.recycles[nextSpan], plan.Actions)
			nextSpan++
		}
	}

	for i, act := range plan.Actions {
		emitSpans(i)
		switch a := act.(type) {
		case *SetLevelAction:
			real, err := resolve(a.Instance)
			if err == nil {
				err = real.SetLevel(a.To)
			}
			if err != nil {
				return x.fail(sys, steps, act, err, res)
			}
			steps = append(steps, appliedStep{act: act, real: real})
			res.Applied++
			if a.Reason == ReasonDeboost && x.Audit.Enabled() {
				x.Audit.Record(telemetry.Event{
					Time: sys.Now(), Kind: telemetry.EventDeboost,
					Stage: real.StageName(), Instance: real.Name(),
					OldLevel: int(a.From), NewLevel: int(a.To),
					HeadroomWatts: float64(sys.Headroom()),
				})
			}
		case *CloneAction:
			src, err := resolve(a.Source)
			var clone Instance
			if err == nil {
				clone, err = a.Stage.Clone(src)
			}
			if err != nil {
				return x.fail(sys, steps, act, err, res)
			}
			if a.ref != nil {
				realized[a.ref] = clone
			}
			steps = append(steps, appliedStep{act: act, real: src, clone: clone, stage: a.Stage})
			res.Applied++
			res.Clones = append(res.Clones, clone.Name())
			if a.Reason == ReasonRelaunch && x.Audit.Enabled() {
				x.Audit.Record(telemetry.Event{
					Time: sys.Now(), Kind: telemetry.EventRelaunch,
					Stage: a.Stage.Name(), Instance: clone.Name(),
					HeadroomWatts: float64(sys.Headroom()),
				})
			}
		case *WithdrawAction:
			victim, err := resolve(a.Victim)
			var target Instance
			if err == nil && a.Target != nil {
				target, err = resolve(a.Target)
			}
			if err == nil {
				err = a.Stage.Withdraw(victim, target)
			}
			if err != nil {
				return x.fail(sys, steps, act, err, res)
			}
			if agg != nil {
				agg.Forget(victim.Name())
			}
			withdrawn[victim.Name()] = true
			steps = append(steps, appliedStep{act: act, real: victim, stage: a.Stage})
			res.Applied++
			res.Withdrawn++
			tgt := ""
			if target != nil {
				tgt = target.Name()
			}
			auditWithdraw(x.Audit, sys.Now(), a.Stage.Name(), victim.Name(), tgt)
		case *ResetEpochAction:
			real, err := resolve(a.Instance)
			if err != nil || withdrawn[real.Name()] {
				continue
			}
			real.ResetUtilizationEpoch()
			res.Applied++
		case *SetBudgetAction:
			if err := a.Node.SetBudget(a.To); err != nil {
				return x.fail(sys, steps, act, err, res)
			}
			steps = append(steps, appliedStep{act: act})
			res.Applied++
			if x.Audit.Enabled() {
				x.Audit.Record(telemetry.Event{
					Time: sys.Now(), Kind: telemetry.EventSetBudget,
					Node:         a.Node.Name(),
					PrevWatts:    float64(a.From),
					GrantedWatts: float64(a.To),
					Detail:       reasonDetail(a.Reason),
				})
			}
		default:
			return x.fail(sys, steps, act, fmt.Errorf("core: unknown action %T", act), res)
		}
	}
	emitSpans(len(plan.Actions))
	return res
}

// fail rolls the applied steps back in reverse order and reports the
// failure. Every intermediate state revisited during rollback is a state
// the forward pass already held under budget, so restores cannot exceed it;
// withdraws stay applied — they only freed power.
func (x Executor) fail(sys System, steps []appliedStep, act Action, cause error, res ApplyResult) ApplyResult {
	undone, failed := 0, 0
	for j := len(steps) - 1; j >= 0; j-- {
		s := steps[j]
		switch a := s.act.(type) {
		case *SetLevelAction:
			if err := s.real.SetLevel(a.From); err != nil {
				failed++
			} else {
				undone++
			}
		case *CloneAction:
			if err := s.stage.Withdraw(s.clone, s.real); err != nil {
				failed++
			} else {
				undone++
			}
		case *SetBudgetAction:
			if err := a.Node.SetBudget(a.From); err != nil {
				failed++
			} else {
				undone++
			}
		}
	}
	res.RolledBack = undone+failed > 0
	res.Err = fmt.Errorf("core: applying %s: %w", act.Describe(), cause)
	if x.Audit.Enabled() {
		x.Audit.Record(telemetry.Event{
			Time:   sys.Now(),
			Kind:   telemetry.EventPlanRollback,
			Detail: fmt.Sprintf("rolled back %d/%d reversible steps after %d applied", undone, undone+failed, res.Applied),
			Err:    res.Err.Error(),
		})
	}
	return res
}

// reasonDetail renders an ActionReason for the audit Detail field.
func reasonDetail(r ActionReason) string {
	switch r {
	case ReasonRebalance:
		return "rebalance"
	case ReasonReadmit:
		return "readmit"
	case ReasonRecycle:
		return "recycle"
	case ReasonDeboost:
		return "deboost"
	case ReasonRelaunch:
		return "relaunch"
	default:
		return "boost"
	}
}

// auditRecycle emits one EventRecycle for a completed recycle span, listing
// the donor transitions the span's SetLevel actions performed.
func (x Executor) auditRecycle(sys System, span recycleSpan, actions []Action) {
	if !x.Audit.Enabled() {
		return
	}
	model := sys.PowerModel()
	var ds []telemetry.Donor
	for i := span.start; i < span.end && i < len(actions); i++ {
		a, ok := actions[i].(*SetLevelAction)
		if !ok || a.From == a.To {
			continue
		}
		ds = append(ds, telemetry.Donor{
			Instance:   a.Instance.Name(),
			FromLevel:  int(a.From),
			ToLevel:    int(a.To),
			FreedWatts: float64(model.Power(a.From) - model.Power(a.To)),
		})
	}
	x.Audit.Record(telemetry.Event{
		Time:          sys.Now(),
		Kind:          telemetry.EventRecycle,
		RecycledWatts: float64(span.freed),
		HeadroomWatts: float64(sys.Headroom()),
		Donors:        ds,
	})
}
