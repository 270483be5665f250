package core

import (
	"fmt"

	"powerchief/internal/cmp"
)

// Executor actuates ActionPlans against the real system: it re-validates
// the plan's budget arithmetic, applies the actions in order, and — when an
// action fails mid-plan (an RPC error in the distributed runtime) — rolls
// the already-applied steps back in reverse order so the deployment lands on
// a consistent, budget-respecting level assignment instead of somewhere
// between two plans. It writes nothing: the audit trail is rendered from the
// record of the plan and its ApplyResult (DecisionRecord.Events).
type Executor struct{}

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
	// Failure is Err for the record: which step failed and what the rollback
	// undid. Nil on success.
	Failure *Failure
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
	if err := x.Validate(sys, plan); err != nil {
		res.Err = err
		res.Failure = &Failure{Step: -1, Err: err.Error()}
		return res
	}

	// The clone and withdraw bookkeeping is made on the first clone or
	// withdraw; the steps a rollback undoes sit on the stack for a plan of
	// up to eight.
	var realized map[*planInstance]Instance
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

	var withdrawn map[string]bool
	var stepBuf [8]appliedStep
	steps := stepBuf[:0]
	for i, act := range plan.Actions {
		switch a := act.(type) {
		case *SetLevelAction:
			real, err := resolve(a.Instance)
			if err == nil {
				err = real.SetLevel(a.To)
			}
			if err != nil {
				return x.fail(steps, i, act, err, res)
			}
			steps = append(steps, appliedStep{act: act, real: real})
			res.Applied++
		case *CloneAction:
			src, err := resolve(a.Source)
			var clone Instance
			if err == nil {
				clone, err = a.Stage.Clone(src)
			}
			if err != nil {
				return x.fail(steps, i, act, err, res)
			}
			if a.ref != nil {
				if realized == nil {
					realized = make(map[*planInstance]Instance)
				}
				realized[a.ref] = clone
			}
			steps = append(steps, appliedStep{act: act, real: src, clone: clone, stage: a.Stage})
			res.Applied++
			res.Clones = append(res.Clones, clone.Name())
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
				return x.fail(steps, i, act, err, res)
			}
			if agg != nil {
				agg.Forget(victim.Name())
			}
			if withdrawn == nil {
				withdrawn = make(map[string]bool)
			}
			withdrawn[victim.Name()] = true
			steps = append(steps, appliedStep{act: act, real: victim, stage: a.Stage})
			res.Applied++
			res.Withdrawn++
		case *ResetEpochAction:
			real, err := resolve(a.Instance)
			if err != nil || withdrawn[real.Name()] {
				continue
			}
			real.ResetUtilizationEpoch()
			res.Applied++
		case *SetBudgetAction:
			if err := a.Node.SetBudget(a.To); err != nil {
				return x.fail(steps, i, act, err, res)
			}
			steps = append(steps, appliedStep{act: act})
			res.Applied++
		default:
			return x.fail(steps, i, act, fmt.Errorf("core: unknown action %T", act), res)
		}
	}
	return res
}

// fail rolls the applied steps back in reverse order and reports the
// failure. Every intermediate state revisited during rollback is a state
// the forward pass already held under budget, so restores cannot exceed it;
// withdraws stay applied — they only freed power.
func (x Executor) fail(steps []appliedStep, step int, act Action, cause error, res ApplyResult) ApplyResult {
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
	res.Failure = &Failure{Step: step, Applied: res.Applied, Undone: undone, Reversible: undone + failed, Err: res.Err.Error()}
	return res
}
