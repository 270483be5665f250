package core

import (
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/telemetry"
)

// AuditSetter is implemented by the planners that narrate their decisions
// into a telemetry audit log — every one of them through an embedded
// Audited. Callers attach a log with
//
//	if as, ok := policy.(AuditSetter); ok {
//		as.SetAudit(log)
//	}
//
// A nil log (the default) keeps every hook a single pointer test, so the
// control loop's cost and the simulator's determinism are unchanged when
// auditing is off.
type AuditSetter interface {
	SetAudit(*telemetry.AuditLog)
}

// Audited is the embedded audit half of a planner: it holds the log and
// builds the Executor its Adjust hands to Tick. The planner's Plan never
// sees the log.
type Audited struct {
	log *telemetry.AuditLog
}

// SetAudit implements AuditSetter.
func (a *Audited) SetAudit(log *telemetry.AuditLog) { a.log = log }

// Executor returns an executor writing to the attached log.
func (a *Audited) Executor() Executor { return Executor{Audit: a.log} }

// auditIdentify records one bottleneck identification: the slowest ranked
// instance with the Equation 1 inputs (L, q̄, s̄) and the spread the
// balance threshold is compared against.
func auditIdentify(a *telemetry.AuditLog, id identification) {
	if !a.Enabled() || id.bn.Instance == nil {
		return
	}
	a.Record(telemetry.Event{
		Time:     id.at,
		Kind:     telemetry.EventIdentify,
		Stage:    id.bn.Stage.Name(),
		Instance: id.bn.Instance.Name(),
		QueueLen: id.bn.QueueLen,
		Queuing:  id.bn.Queuing,
		Serving:  id.bn.Serving,
		Metric:   id.bn.Metric,
		Spread:   id.spread,
	})
}

// auditOutcome records what the decision engine did this interval: the
// chosen technique with the Equation 2/3 estimates that drove the choice,
// the actuation, and the power accounting after it.
func auditOutcome(a *telemetry.AuditLog, sys System, out BoostOutcome) {
	if !a.Enabled() {
		return
	}
	e := telemetry.Event{
		Time:          sys.Now(),
		Instance:      out.Target,
		TInst:         out.TInst,
		TFreq:         out.TFreq,
		OldLevel:      int(out.OldLevel),
		NewLevel:      int(out.NewLevel),
		NewInstance:   out.NewInstance,
		RecycledWatts: float64(out.Recycled),
		HeadroomWatts: float64(sys.Headroom()),
	}
	switch out.Kind {
	case BoostFrequency:
		e.Kind = telemetry.EventBoostFreq
	case BoostInstance:
		e.Kind = telemetry.EventBoostInst
	default:
		e.Kind = telemetry.EventBoostNone
	}
	a.Record(e)
}

// auditWithdraw records one executed instance withdraw.
func auditWithdraw(a *telemetry.AuditLog, now time.Duration, stage, victim, target string) {
	if !a.Enabled() {
		return
	}
	a.Record(telemetry.Event{
		Time:     now,
		Kind:     telemetry.EventWithdraw,
		Stage:    stage,
		Instance: victim,
		Target:   target,
	})
}

// recycle runs the engine's recycler. Against a PlanView the pass marks a
// recycle span on the plan, and the Executor audits the grouped donor steps
// once they actually apply.
func (e Engine) recycle(sys System, model cmp.PowerModel, donors []Instance, need cmp.Watts) cmp.Watts {
	pv, ok := sys.(*PlanView)
	if !ok {
		return e.Recycler.Recycle(model, donors, need)
	}
	start := pv.beginRecycle()
	recycled := e.Recycler.Recycle(model, donors, need)
	pv.endRecycle(start, recycled)
	return recycled
}
