package arbiter

import (
	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// Planner is the redistribution mechanism, implemented as a core.Planner
// one level up from the stage policies: every arbiter epoch it computes
// per-member budget targets from the strategy's weights and emits a plan of
// SetBudgetActions — decreases before increases, so the executor's budget
// replay holds Σ granted ≤ cap at every intermediate state.
//
// The target for each participating member is the floor plus a share of the
// remaining watts proportional to its strategy weight. Pinned members hold
// the floor; moves smaller than the hysteresis are suppressed, and any
// headroom left over after suppression is redistributed so no watts are
// stranded by the flap guard.
type Planner struct {
	strategy Strategy
	label    string
	core.Audited
}

// New builds a planner over the strategy. The policy name defaults to
// "arbiter-<strategy>".
func New(strategy Strategy) *Planner {
	if strategy == nil {
		strategy = Proportional{}
	}
	return &Planner{strategy: strategy, label: "arbiter-" + strategy.Name()}
}

// WithName overrides the policy name (fleet.NewRebalance keeps the
// historical "fleet-rebalance") and returns the planner for chaining.
func (p *Planner) WithName(name string) *Planner {
	p.label = name
	return p
}

// Name implements core.Policy.
func (p *Planner) Name() string { return p.label }

// Strategy returns the weighting strategy.
func (p *Planner) Strategy() Strategy { return p.strategy }

// Plan implements core.Planner. sys must be a View; anything else yields an
// empty plan.
func (p *Planner) Plan(sys core.System, _ core.StatsReader) (*core.ActionPlan, core.BoostOutcome) {
	none := core.BoostOutcome{Kind: core.BoostNone}
	v, ok := sys.(View)
	if !ok {
		return &core.ActionPlan{}, none
	}
	members := v.Members()
	if len(members) == 0 {
		return &core.ActionPlan{}, none
	}
	floor, hyst := v.Floor(), v.Hysteresis()

	// The distributable pool: the parent budget minus watts held outside
	// the member set (a quarantined node keeps its grant until the reclaim
	// pass takes it back; strict-cap holds count as draw).
	var memberGranted cmp.Watts
	for _, m := range members {
		memberGranted += m.Granted
	}
	avail := v.Budget() - (v.Draw() - memberGranted)
	if avail < 0 {
		avail = 0
	}
	extra := avail - cmp.Watts(len(members))*floor
	if extra < 0 {
		extra = 0
	}

	// Strategy-weighted targets: floor plus the weight-proportional share
	// of the extra. Pinned members hold the floor.
	raw := p.strategy.Weights(members)
	unpinned := 0
	var sumW float64
	weights := make([]float64, len(members))
	for i, m := range members {
		if m.Pinned {
			continue
		}
		unpinned++
		w := raw[i]
		if w < 0 {
			w = 0
		}
		weights[i] = w
		sumW += w
	}
	desired := make([]cmp.Watts, len(members))
	for i, m := range members {
		if m.Pinned {
			desired[i] = floor
			continue
		}
		var share float64
		if sumW > 0 {
			share = weights[i] / sumW
		} else if unpinned > 0 {
			share = 1 / float64(unpinned)
		}
		desired[i] = floor + cmp.Watts(float64(extra)*share)
	}

	// Hysteresis: a move smaller than the threshold keeps the current
	// grant, so metric noise does not flap watts between members.
	for i, m := range members {
		d := desired[i] - m.Granted
		if d < 0 {
			d = -d
		}
		if d <= hyst {
			desired[i] = m.Granted
		}
	}

	// Feasibility: hysteresis keeps can push the sum over the pool (a kept
	// grant above its computed target). Cut the increases proportionally —
	// the overshoot never exceeds their sum, since Σ granted ≤ pool held
	// before this epoch.
	var sum cmp.Watts
	for _, d := range desired {
		sum += d
	}
	if sum > avail {
		var incTotal cmp.Watts
		for i, m := range members {
			if desired[i] > m.Granted {
				incTotal += desired[i] - m.Granted
			}
		}
		if incTotal > 0 {
			scale := float64(sum-avail) / float64(incTotal)
			if scale > 1 {
				scale = 1
			}
			for i, m := range members {
				if desired[i] > m.Granted {
					desired[i] -= cmp.Watts(float64(desired[i]-m.Granted) * scale)
				}
			}
		}
	} else if left := avail - sum; left > 1e-9 && unpinned > 0 {
		// Keeps (or a shrunken member set) left headroom unallocated.
		// Spread it equally over the unpinned members, overriding
		// hysteresis: the flap guard must never strand watts — after a
		// quarantine the reclaimed power lands on the survivors this epoch
		// even when each member's share is individually below the
		// threshold.
		per := left / cmp.Watts(unpinned)
		for i, m := range members {
			if !m.Pinned {
				desired[i] += per
			}
		}
	}

	// Emit decreases first, then increases: the executor replays the budget
	// in plan order, so freeing watts before spending them keeps every
	// intermediate state under the cap.
	plan := &core.ActionPlan{}
	for i, m := range members {
		if desired[i] < m.Granted-1e-9 {
			plan.Actions = append(plan.Actions, &core.SetBudgetAction{
				Node: m.Control, From: m.Granted, To: desired[i], Reason: core.ReasonRebalance,
			})
		}
	}
	for i, m := range members {
		if desired[i] > m.Granted+1e-9 {
			plan.Actions = append(plan.Actions, &core.SetBudgetAction{
				Node: m.Control, From: m.Granted, To: desired[i], Reason: core.ReasonRebalance,
			})
		}
	}
	return plan, none
}

// Adjust implements core.Policy: the tick. A mid-plan grant failure (a
// member dying between the report and its grant, a hung app loop refusing
// its new budget) rolls the applied prefix back, so the ledger never
// straddles two allocations.
func (p *Planner) Adjust(sys core.System, agg *core.Aggregator) core.BoostOutcome {
	out, _ := core.Tick(p, p.Executor(), nil, sys, agg)
	return out
}

// Interface conformance.
var (
	_ core.Policy      = (*Planner)(nil)
	_ core.Planner     = (*Planner)(nil)
	_ core.AuditSetter = (*Planner)(nil)
)
