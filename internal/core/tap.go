package core

import (
	"time"

	"powerchief/internal/telemetry"
)

// DecisionRecord is one control tick of a planning policy, its only record:
// what replay reads — the Snapshot the decision read, the plan it emitted
// (encoded), the outcome after actuation — and what the plan was decided on
// and how its apply went, from which Events renders the audit trail.
type DecisionRecord struct {
	// Tick is the policy's tick seq, counted from 1 by its Recorded holder
	// (0 for a plan applied outside a tick). Audit events carry it too.
	Tick     int            `json:"tick"`
	Snapshot *Snapshot      `json:"snapshot"`
	Plan     []ActionRecord `json:"plan"`
	Outcome  BoostOutcome   `json:"outcome"`

	// Identified is the Equation 1 identification the plan was decided on;
	// nil when nothing ranked.
	Identified *Identification `json:"identified,omitempty"`
	// Decided marks a boosting decision, whose outcome the audit reports.
	Decided bool `json:"decided,omitempty"`
	// Withdraw lists the §6.2 withdraw epoch's withdraws PowerChief applied
	// ahead of the tick (before the capture). Replay ignores it.
	Withdraw []ActionRecord `json:"withdraw,omitempty"`
	// Failure reports a plan that did not apply in full.
	Failure *Failure `json:"failure,omitempty"`
}

// Identification is one bottleneck identification (Equation 1) as a record
// carries it: the slowest ranked instance with its inputs, and the spread
// the balance threshold was compared against.
type Identification struct {
	Stage    string        `json:"stage"`
	Instance string        `json:"instance"`
	QueueLen int           `json:"queue_len,omitempty"`
	Queuing  time.Duration `json:"queuing,omitempty"`
	Serving  time.Duration `json:"serving,omitempty"`
	Metric   time.Duration `json:"metric,omitempty"`
	Spread   time.Duration `json:"spread,omitempty"`
}

// Failure is a plan the Executor did not apply in full: validation rejected
// it (Step −1, nothing actuated), or the action at Step failed and the
// Applied steps before it were rolled back, Undone of Reversible.
type Failure struct {
	Step       int    `json:"step"`
	Applied    int    `json:"applied,omitempty"`
	Undone     int    `json:"undone,omitempty"`
	Reversible int    `json:"reversible,omitempty"`
	Err        string `json:"err"`
}

// note fills in what the plan was decided on and how its apply went.
func (rec *DecisionRecord) note(plan *ActionPlan, res ApplyResult) {
	if plan != nil {
		if bn := plan.identified; bn.Instance != nil {
			rec.Identified = &Identification{
				Stage: bn.Stage.Name(), Instance: bn.Instance.Name(),
				QueueLen: bn.QueueLen, Queuing: bn.Queuing, Serving: bn.Serving, Metric: bn.Metric,
				Spread: plan.spread,
			}
		}
		rec.Decided = plan.decided
	}
	rec.Failure = res.Failure
}

// DecisionTap observes the decision path of a policy: one RecordDecision per
// adjust interval, after the plan applied. Taps run on the control loop's
// goroutine — implementations bound their own memory.
type DecisionTap interface {
	RecordDecision(rec DecisionRecord)
}

// TapSetter is implemented by policies that expose their decision path for
// recording; the control loop attaches the configured tap through it, the
// same way AuditSetter attaches the audit log.
type TapSetter interface {
	SetTap(DecisionTap)
}

// AuditSetter is implemented by policies that narrate their decisions into
// a telemetry audit log; the control loop attaches the configured log
// through it. A nil log (the default) costs a tick nothing.
type AuditSetter interface {
	SetAudit(*telemetry.AuditLog)
}

// Recorded is the embedded recording half of every planning policy: the
// audit log and tap its Adjust hands to Tick, and the tick seq that stamps
// each record. The planner's Plan never sees any of it.
type Recorded struct {
	log      *telemetry.AuditLog
	tap      DecisionTap
	tick     int
	withdraw []ActionRecord // the withdraw epoch applied ahead of the next tick
}

// SetAudit implements AuditSetter.
func (r *Recorded) SetAudit(log *telemetry.AuditLog) { r.log = log }

// SetTap implements TapSetter.
func (r *Recorded) SetTap(tp DecisionTap) { r.tap = tp }

// recording reports whether a tick's record has a reader.
func (r *Recorded) recording() bool { return r != nil && (r.log != nil || r.tap != nil) }
