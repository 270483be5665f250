package core

// DecisionRecord is one control tick of a planning policy, in replayable
// form: the Snapshot the decision read, the plan it emitted (encoded), and
// the outcome after actuation.
type DecisionRecord struct {
	Snapshot *Snapshot      `json:"snapshot"`
	Plan     []ActionRecord `json:"plan"`
	Outcome  BoostOutcome   `json:"outcome"`
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

// tapHolder is the embedded recording half of the planning policies: it
// holds the tap their Adjust hands to Tick.
type tapHolder struct {
	tap DecisionTap
}

// SetTap implements TapSetter.
func (t *tapHolder) SetTap(tp DecisionTap) { t.tap = tp }
