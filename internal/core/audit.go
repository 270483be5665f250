package core

import (
	"fmt"
	"slices"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/telemetry"
)

// Events is the one builder of per-tick audit events: the withdraw epoch
// applied ahead of the tick, the identification, one event per actuated step
// the trail names (a recycle pass's donor steps as one), then the rollback
// of a failed plan or the outcome of a boosting decision, each stamped now
// and the record's tick. Headrooms re-walk draw, the draw before the plan,
// with Validate's arithmetic, a withdraw's refund left out (the DES defers
// it while the victim drains, and no plan reads headroom after one).
func (rec *DecisionRecord) Events(now time.Duration, power cmp.PowerModel, budget, draw cmp.Watts) []telemetry.Event {
	var out []telemetry.Event
	add := func(e telemetry.Event) {
		e.Time, e.Tick = now, rec.Tick
		out = append(out, e)
	}
	for _, w := range rec.Withdraw {
		add(telemetry.Event{Kind: telemetry.EventWithdraw, Stage: w.Stage, Instance: w.Victim, Target: w.Target})
	}
	if id := rec.Identified; id != nil {
		add(telemetry.Event{Kind: telemetry.EventIdentify, Stage: id.Stage, Instance: id.Instance,
			QueueLen: id.QueueLen, Queuing: id.Queuing, Serving: id.Serving, Metric: id.Metric, Spread: id.Spread})
	}
	// A recycle pass is a run of donor steps, each donor once: passes are
	// adjacent only when SelectBoosting's clone and split-clone both fail,
	// and a donor stepping again opens the second.
	pass := telemetry.Event{Kind: telemetry.EventRecycle}
	donates := func(i int) bool {
		if i >= len(rec.Plan) || rec.Plan[i].Kind != "set-level" || rec.Plan[i].Reason != "recycle" {
			return false
		}
		return !slices.ContainsFunc(pass.Donors, func(d telemetry.Donor) bool { return d.Instance == rec.Plan[i].Instance })
	}
	flush := func() {
		if len(pass.Donors) > 0 {
			pass.HeadroomWatts = float64(budget - draw)
			add(pass)
		}
		pass = telemetry.Event{Kind: telemetry.EventRecycle}
	}

	// Validation rejected the plan (Step −1) or the step at Step failed.
	applied, f := len(rec.Plan), rec.Failure
	if f != nil {
		applied = min(f.Step, applied)
	}
	for i := 0; i < applied; i++ {
		if !donates(i) {
			flush()
		}
		a := &rec.Plan[i]
		switch a.Kind {
		case "set-level":
			freed := power.Power(cmp.Level(a.From)) - power.Power(cmp.Level(a.To))
			draw -= freed
			switch a.Reason {
			case "recycle":
				pass.Donors = append(pass.Donors, telemetry.Donor{Instance: a.Instance, FromLevel: a.From, ToLevel: a.To, FreedWatts: float64(freed)})
				pass.RecycledWatts += float64(freed)
			case "deboost", "readmit":
				e := telemetry.Event{Kind: telemetry.EventDeboost, Stage: a.Stage, Instance: a.Instance,
					OldLevel: a.From, NewLevel: a.To, HeadroomWatts: float64(budget - draw)}
				if a.Reason == "readmit" {
					e.Detail = a.Reason
				}
				add(e)
			}
		case "clone":
			draw += power.Power(cmp.Level(a.Level))
			if a.Reason == "relaunch" { // the saver's QoS recovery: one clone, the outcome's
				add(telemetry.Event{Kind: telemetry.EventRelaunch, Stage: a.Stage, Instance: rec.Outcome.NewInstance, HeadroomWatts: float64(budget - draw)})
			}
		case "withdraw":
			add(telemetry.Event{Kind: telemetry.EventWithdraw, Stage: a.Stage, Instance: a.Victim, Target: a.Target})
		case "set-budget":
			draw += a.ToW - a.FromW
			add(telemetry.Event{Kind: telemetry.EventSetBudget, Node: a.Node, PrevWatts: float64(a.FromW), GrantedWatts: float64(a.ToW), Detail: a.Reason})
		}
	}

	switch {
	case f == nil:
		flush()
		if rec.Decided {
			o := rec.Outcome
			e := telemetry.Event{
				Kind: telemetry.EventBoostNone, Instance: o.Target, TInst: o.TInst, TFreq: o.TFreq,
				OldLevel: int(o.OldLevel), NewLevel: int(o.NewLevel), NewInstance: o.NewInstance,
				RecycledWatts: float64(o.Recycled), HeadroomWatts: float64(budget - draw),
			}
			switch o.Kind {
			case BoostFrequency:
				e.Kind = telemetry.EventBoostFreq
			case BoostInstance:
				e.Kind = telemetry.EventBoostInst
			}
			add(e)
		}
	case f.Step >= 0:
		if !donates(f.Step) { // a pass the failing step continued never completed
			flush()
		}
		add(telemetry.Event{
			Kind:   telemetry.EventPlanRollback,
			Detail: fmt.Sprintf("rolled back %d/%d reversible steps after %d applied", f.Undone, f.Reversible, f.Applied),
			Err:    f.Err,
		})
	}
	return out
}

// audit renders the record into log.
func (rec *DecisionRecord) audit(log *telemetry.AuditLog, now time.Duration, power cmp.PowerModel, budget, draw cmp.Watts) {
	for _, e := range rec.Events(now, power, budget, draw) {
		log.Record(e)
	}
}

// ApplyPlan applies a plan outside a control tick — a re-admission's cuts
// and grant — and renders its record into log (nil: none); draw is the draw
// the plan started from. The events carry no tick of their own, so the log
// stamps them with the last tick it saw.
func ApplyPlan(log *telemetry.AuditLog, sys System, draw cmp.Watts, plan *ActionPlan) ApplyResult {
	res := Executor{}.Apply(sys, nil, plan)
	if log.Enabled() {
		rec := DecisionRecord{Plan: EncodePlan(plan)}
		rec.note(plan, res)
		rec.audit(log, sys.Now(), sys.PowerModel(), sys.Budget(), draw)
	}
	return res
}
