package core

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
)

// The plan/apply split: policies *decide* against a PlanView — a budget
// overlay that records intended mutations instead of performing them — and
// the Executor *actuates* the resulting ActionPlan against the real system.
// Separating the two keeps the decision kernel pure (it can be unit-tested,
// dry-run and replayed) and gives actuation a single choke point where the
// budget is validated, the audit log is written, and a partial failure — an
// RPC error halfway through a distributed plan — is rolled back instead of
// leaving the deployment between two level assignments. See DESIGN.md §5g.

// ActionReason tags why an action is in the plan, so the Executor can emit
// the matching audit event (recycle donors, deboosts, relaunches) without
// re-deriving intent from the action sequence.
type ActionReason int

const (
	// ReasonBoost marks the default actuation of a boosting decision.
	ReasonBoost ActionReason = iota
	// ReasonRecycle marks a donor frequency step freeing power (Algorithm 2).
	ReasonRecycle
	// ReasonDeboost marks the power saver stepping a fast instance down.
	ReasonDeboost
	// ReasonRelaunch marks the saver launching an instance back during QoS
	// recovery.
	ReasonRelaunch
	// ReasonRebalance marks a fleet coordinator re-granting a node's budget
	// from the periodic metric-weighted redistribution.
	ReasonRebalance
	// ReasonReadmit marks the floor grant that re-admits a recovered node.
	ReasonReadmit
)

// Action is one typed mutation of the deployment. The four kinds mirror the
// Command Center's actuation surface: DVFS transitions, instance cloning,
// instance withdraw and withdraw-epoch resets.
type Action interface {
	// Describe renders the action for errors and logs.
	Describe() string
}

// SetLevelAction is a DVFS transition of one instance.
type SetLevelAction struct {
	// Instance is the plan's handle on the target — resolved to the real
	// instance by the Executor (planned clones resolve to the instance the
	// preceding CloneAction launched).
	Instance Instance
	// From and To are the levels before and after the transition; From is
	// what a rollback restores.
	From, To cmp.Level
	// Reason tags the intent for audit.
	Reason ActionReason
}

// Describe implements Action.
func (a *SetLevelAction) Describe() string {
	return fmt.Sprintf("set-level %s %d→%d", a.Instance.Name(), int(a.From), int(a.To))
}

// CloneAction launches a new instance of Stage at Level, stealing half of
// Source's queued work (instance boosting, §5.1).
type CloneAction struct {
	// Stage is the real stage handle (stages are never created by plans).
	Stage StageControl
	// Source is the instance being cloned.
	Source Instance
	// Level is the frequency the clone launches at (the source's level at
	// plan time); its power model cost is what the plan charged the budget.
	Level cmp.Level
	// Reason tags the intent for audit.
	Reason ActionReason

	// ref is the plan's placeholder for the not-yet-launched clone; the
	// Executor binds it to the realized instance so later actions referring
	// to the clone resolve. Nil for hand-built plans.
	ref *planInstance
}

// Describe implements Action.
func (a *CloneAction) Describe() string {
	return fmt.Sprintf("clone %s of stage %s at level %d", a.Source.Name(), a.Stage.Name(), int(a.Level))
}

// WithdrawAction drains Victim, redirecting its load to Target (or a
// dispatcher-chosen instance when Target is nil). Withdraws only free power,
// so they are never rolled back: an applied withdraw keeps the draw under
// the budget no matter where the plan fails.
type WithdrawAction struct {
	Stage  StageControl
	Victim Instance
	Target Instance
}

// Describe implements Action.
func (a *WithdrawAction) Describe() string {
	return fmt.Sprintf("withdraw %s from stage %s", a.Victim.Name(), a.Stage.Name())
}

// ResetEpochAction starts a new withdraw accounting epoch on one instance.
// The Executor skips instances withdrawn earlier in the same plan.
type ResetEpochAction struct {
	Instance Instance
}

// Describe implements Action.
func (a *ResetEpochAction) Describe() string {
	return fmt.Sprintf("reset-epoch %s", a.Instance.Name())
}

// SetBudgetAction re-grants one fleet node's power budget. At the fleet
// layer the "system" is the cluster: Draw() is the sum of granted node
// budgets and Budget() the cluster cap, so the executor's budget replay
// (drawn += To−From per action) enforces the cluster invariant
// Σ granted ≤ cap at every intermediate state — which is why planners order
// decreases before increases. A rollback restores From.
type SetBudgetAction struct {
	// Node is the actuation handle (an RPC client in the real fleet, a sim
	// node in the DES).
	Node NodeControl
	// From and To are the granted budgets before and after; From is what a
	// rollback restores.
	From, To cmp.Watts
	// Reason tags the intent for audit (ReasonRebalance or ReasonReadmit).
	Reason ActionReason
}

// Describe implements Action.
func (a *SetBudgetAction) Describe() string {
	return fmt.Sprintf("set-budget %s %.2fW→%.2fW", a.Node.Name(), float64(a.From), float64(a.To))
}

// identification is one bottleneck identification as the plan carries it:
// the slowest ranked instance with its Equation 1 inputs, and the spread the
// balance threshold was compared against.
type identification struct {
	at     time.Duration
	bn     Ranked
	spread time.Duration
}

// recycleSpan marks a contiguous run of plan actions produced by one power
// recycling pass, so the Executor can emit a single EventRecycle listing the
// donors once that run has been actuated — the same grouping the direct
// actuation path produced.
type recycleSpan struct {
	start, end int // action index range [start, end)
	freed      cmp.Watts
}

// ActionPlan is an ordered mutation program produced by one decision pass.
// Order matters: the budget arithmetic that validated the plan charges and
// refunds watts in exactly this sequence, so the Executor applies it in
// order and rolls it back in reverse.
type ActionPlan struct {
	Actions []Action

	// identified is the Equation 1 identification the plan was decided on;
	// the Executor audits it ahead of the actions. Zero when nothing ranked.
	identified identification
	// decided (PlanView.Decided) marks a boosting decision, whose outcome
	// Tick audits once the plan applied.
	decided bool

	recycles []recycleSpan
}

// Empty reports whether the plan mutates nothing.
func (p *ActionPlan) Empty() bool { return p == nil || len(p.Actions) == 0 }

// Describe renders the plan for logs, one action per line.
func (p *ActionPlan) Describe() string {
	if p.Empty() {
		return "(empty plan)"
	}
	s := ""
	for i, a := range p.Actions {
		if i > 0 {
			s += "\n"
		}
		s += a.Describe()
	}
	return s
}
