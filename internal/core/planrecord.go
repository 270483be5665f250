package core

import (
	"fmt"

	"powerchief/internal/cmp"
)

// ActionRecord is the wire form of one plan Action: instances and stages by
// name, levels and watts by value. Encoding is deterministic — the same plan
// always yields the same records, and json.Marshal of the same records
// yields the same bytes — which is what the replay determinism gate
// compares.
type ActionRecord struct {
	Kind     string    `json:"kind"`
	Instance string    `json:"instance,omitempty"`
	Stage    string    `json:"stage,omitempty"`
	Source   string    `json:"source,omitempty"`
	Victim   string    `json:"victim,omitempty"`
	Target   string    `json:"target,omitempty"`
	Node     string    `json:"node,omitempty"`
	From     int       `json:"from,omitempty"`
	To       int       `json:"to,omitempty"`
	Level    int       `json:"level,omitempty"`
	FromW    cmp.Watts `json:"from_watts,omitempty"`
	ToW      cmp.Watts `json:"to_watts,omitempty"`
	Reason   string    `json:"reason,omitempty"`
}

// reasonNames renders ActionReason, indexed by it.
var reasonNames = [...]string{
	ReasonBoost: "boost", ReasonRecycle: "recycle", ReasonDeboost: "deboost",
	ReasonRelaunch: "relaunch", ReasonRebalance: "rebalance", ReasonReadmit: "readmit",
}

// String renders an ActionReason for records and logs.
func (r ActionReason) String() string {
	if r < 0 || int(r) >= len(reasonNames) {
		return "boost"
	}
	return reasonNames[r]
}

// EncodePlan flattens an ActionPlan into its wire records. Plan-time clone
// placeholders encode under their placeholder names ("X+clone"), the same
// on a live system and on a SnapshotView — replayed and recorded plans are
// compared in this form.
func EncodePlan(p *ActionPlan) []ActionRecord {
	if p == nil {
		return nil
	}
	out := make([]ActionRecord, 0, len(p.Actions))
	for _, act := range p.Actions {
		switch a := act.(type) {
		case *SetLevelAction:
			out = append(out, ActionRecord{
				Kind: "set-level", Instance: a.Instance.Name(),
				Stage: a.Instance.StageName(),
				From:  int(a.From), To: int(a.To), Reason: a.Reason.String(),
			})
		case *CloneAction:
			out = append(out, ActionRecord{
				Kind: "clone", Stage: a.Stage.Name(), Source: a.Source.Name(),
				Level: int(a.Level), Reason: a.Reason.String(),
			})
		case *WithdrawAction:
			rec := ActionRecord{Kind: "withdraw", Stage: a.Stage.Name(), Victim: a.Victim.Name()}
			if a.Target != nil {
				rec.Target = a.Target.Name()
			}
			out = append(out, rec)
		case *ResetEpochAction:
			out = append(out, ActionRecord{Kind: "reset-epoch", Instance: a.Instance.Name()})
		case *SetBudgetAction:
			out = append(out, ActionRecord{
				Kind: "set-budget", Node: a.Node.Name(),
				FromW: a.From, ToW: a.To, Reason: a.Reason.String(),
			})
		default:
			out = append(out, ActionRecord{Kind: fmt.Sprintf("unknown:%T", act)})
		}
	}
	return out
}
