package powerchief

import (
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
)

// The control-plane surface exposes the one backend-agnostic control loop:
// every driver — DES harness, live cluster, distributed command center —
// schedules policy adjusts through the same loop, over a Clock that is
// virtual for the simulator and scaled wall time everywhere else.

type (
	// ControlLoop is a running control loop: adjust epochs, optional sample
	// epochs, bounded outcome history and degraded-mode accounting.
	ControlLoop = controlplane.Loop
	// ControlOptions configures a ControlLoop.
	ControlOptions = controlplane.Options
	// Clock abstracts the loop's notion of time (virtual or scaled wall).
	Clock = controlplane.Clock
	// Adjuster runs one control interval against a backend. The distributed
	// Center satisfies it directly; in-process systems adapt via NewAdjuster.
	Adjuster = controlplane.Adjuster
	// ActionPlan is a policy decision as typed actions, before actuation.
	ActionPlan = core.ActionPlan
	// Planner is a decision as one pure function: Plan returns the action
	// plan and the outcome it would report, and actuates nothing.
	Planner = core.Planner
	// Executor validates, applies and rolls back action plans.
	Executor = core.Executor
	// System is a controllable deployment as policies see it: power
	// accounting plus per-stage instance control.
	System = core.System
	// BoostOutcome is one control interval's decision record.
	BoostOutcome = core.BoostOutcome
)

// StartControlLoop validates the options and starts the loop on the clock.
// The first adjust fires one interval from now; Stop halts the loop and is
// safe to call concurrently and repeatedly.
func StartControlLoop(clock Clock, adj Adjuster, opts ControlOptions) (*ControlLoop, error) {
	return controlplane.Start(clock, adj, opts)
}

// NewAdjuster adapts an in-process System and its Aggregator (a live cluster
// or a DES view) into an Adjuster for StartControlLoop.
func NewAdjuster(sys System, agg *Aggregator) Adjuster {
	return controlplane.NewAdjuster(sys, agg)
}
