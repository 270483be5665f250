package core

import "powerchief/internal/cmp"

// Recycler implements the power reallocation mechanism (§6.1, Algorithm 2):
// when the boosting decision needs more power than the budget headroom
// offers, power is recycled greedily from the fastest instances — those with
// the smallest latency metric, which have the least chance of becoming the
// next bottleneck — by stepping their frequency down, one instance at a
// time, until enough power is freed.
type Recycler struct {
	// Floor is the lowest level recycling may push a donor to. Zero (the
	// ladder minimum) matches the paper.
	Floor cmp.Level
}

// RecycleFromInst lowers one donor instance's frequency just enough to free
// the requested power (or to the floor), returning the power actually
// recycled. Mirrors RECYCLEFROMINST of Algorithm 2.
func (r Recycler) RecycleFromInst(model cmp.PowerModel, donor Instance, need cmp.Watts) cmp.Watts {
	if need <= 0 {
		return 0
	}
	cur := donor.Level()
	target := cur
	var recycled cmp.Watts
	for l := cur; l >= r.Floor; l-- {
		recycled = model.Power(cur) - model.Power(l)
		target = l
		if recycled >= need {
			break
		}
	}
	if target == cur {
		return 0
	}
	if err := donor.SetLevel(target); err != nil {
		// Lowering frequency never exceeds the budget; a failure means the
		// instance retired between ranking and actuation. Skip it.
		return 0
	}
	return recycled
}

// Recycle frees at least `need` watts by walking donors from fastest to
// slowest (RECYCLE of Algorithm 2). The donors slice must be ordered fastest
// first — i.e. the ranking of the bottleneck identifier reversed — and must
// not contain the instance being boosted. Returns the total power recycled,
// which may fall short when every donor is already at the floor.
func (r Recycler) Recycle(model cmp.PowerModel, donors []Instance, need cmp.Watts) cmp.Watts {
	var recycled cmp.Watts
	for _, donor := range donors {
		if recycled >= need {
			break
		}
		recycled += r.RecycleFromInst(model, donor, need-recycled)
	}
	return recycled
}

// PlanShed is the plainest form of Algorithm 2's step-down, the one way watts
// are taken back from instances outside a boosting decision — a returning
// stage's own levels and the survivors' at re-admission, a tenant partition
// meeting a lowered grant. It steps the highest-level instance of stages down
// one level at a time, the first in stage and instance order on ties, until
// draw fits target or every instance is at level 0, keeping the running draw
// the way cmp.Chip.SetLevel does so its stop test sees the chip's own floats.
// Each step is one SetLevelAction tagged reason, appended to plan. It returns
// the draw after the steps: above target+1e-9 means the shed fell short.
func PlanShed(plan *ActionPlan, stages []StageControl, model cmp.PowerModel, draw, target cmp.Watts, reason ActionReason) cmp.Watts {
	var ins []Instance
	var levels []cmp.Level // the plan's level per instance, read once
	for draw > target+1e-9 {
		if ins == nil {
			for _, st := range stages {
				for _, in := range st.Instances() {
					ins = append(ins, in)
					levels = append(levels, in.Level())
				}
			}
		}
		best := -1
		for i, l := range levels {
			if best < 0 || l > levels[best] {
				best = i
			}
		}
		if best < 0 || levels[best] == 0 {
			break
		}
		from := levels[best]
		plan.Actions = append(plan.Actions, &SetLevelAction{Instance: ins[best], From: from, To: from - 1, Reason: reason})
		draw += model.Power(from-1) - model.Power(from)
		levels[best] = from - 1
	}
	return draw
}

// DonorsFromRanking extracts the donor list for boosting `bottleneck`: every
// other ranked instance, fastest (smallest metric) first.
func DonorsFromRanking(ranked []Ranked, bottleneck Instance) []Instance {
	return appendDonors(make([]Instance, 0, len(ranked)), ranked, bottleneck)
}

// appendDonors appends DonorsFromRanking's list to donors.
func appendDonors(donors []Instance, ranked []Ranked, bottleneck Instance) []Instance {
	for i := len(ranked) - 1; i >= 0; i-- {
		if ranked[i].Instance != bottleneck {
			donors = append(donors, ranked[i].Instance)
		}
	}
	return donors
}

// WithdrawPlan describes one instance withdraw decision (§6.2).
type WithdrawPlan struct {
	Stage  StageControl
	Victim Instance
	Target Instance // fastest instance of the stage, receives the load
}

// PlanWithdraws scans every scalable stage for underutilized instances: busy
// less than threshold of the elapsed withdraw epoch. At most one instance
// per stage is selected (the least utilized), and never the last instance of
// a stage. Rankings must come from the current interval so the redirect
// target is the stage's fastest instance.
func PlanWithdraws(sys System, ranked []Ranked, threshold float64) []WithdrawPlan {
	// Fastest instance per stage: lowest-metric live instance.
	fastest := make(map[string]Instance)
	for i := len(ranked) - 1; i >= 0; i-- {
		name := ranked[i].Stage.Name()
		if _, ok := fastest[name]; !ok {
			fastest[name] = ranked[i].Instance
		}
	}
	var plans []WithdrawPlan
	for _, st := range sys.Stages() {
		if !st.CanScale() {
			continue
		}
		ins := st.Instances()
		if len(ins) < 2 {
			continue
		}
		var victim Instance
		lowest := threshold
		for _, in := range ins {
			if u := in.Utilization(); u < lowest {
				victim, lowest = in, u
			}
		}
		if victim == nil {
			continue
		}
		target := fastest[st.Name()]
		if target == victim {
			target = nil // let the stage dispatcher choose
		}
		plans = append(plans, WithdrawPlan{Stage: st, Victim: victim, Target: target})
	}
	return plans
}

// PlanWithdrawEpoch captures one withdraw epoch (§6.2) as an ActionPlan:
// the per-stage underutilization withdraws followed by a utilization-epoch
// reset of every instance (the Executor skips resets of instances withdrawn
// earlier in the plan, leaving exactly the survivors reset).
func PlanWithdrawEpoch(sys System, ranked []Ranked, threshold float64) *ActionPlan {
	plan := &ActionPlan{}
	for _, wp := range PlanWithdraws(sys, ranked, threshold) {
		plan.Actions = append(plan.Actions, &WithdrawAction{Stage: wp.Stage, Victim: wp.Victim, Target: wp.Target})
	}
	for _, in := range Instances(sys) {
		plan.Actions = append(plan.Actions, &ResetEpochAction{Instance: in})
	}
	return plan
}
