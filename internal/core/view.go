package core

import (
	"time"

	"powerchief/internal/cmp"
)

// Instance is the Command Center's handle on one service instance.
type Instance interface {
	// Name is the instance signature carried in query records, e.g. "QA_2".
	Name() string
	// StageName names the owning stage, e.g. "QA".
	StageName() string
	// QueueLen is the realtime load: queued queries plus the one in service
	// (the L of Equation 1).
	QueueLen() int
	// Level is the instance core's current frequency level.
	Level() cmp.Level
	// SetLevel performs a DVFS transition, subject to the chip budget.
	SetLevel(cmp.Level) error
	// Utilization is the fraction of the current withdraw epoch spent
	// serving queries.
	Utilization() float64
	// ResetUtilizationEpoch starts a new withdraw accounting epoch.
	ResetUtilizationEpoch()
}

// StageControl is the Command Center's handle on one stage.
type StageControl interface {
	// Name returns the stage name.
	Name() string
	// CanScale reports whether instances may be launched into or withdrawn
	// from the stage (pipeline stages — fan-out leaves hold shards).
	CanScale() bool
	// Instances returns the live instances accepting queries. Callers must
	// not modify the returned slice, and it is valid until the stage's
	// membership changes: views hand out the same one until then.
	Instances() []Instance
	// Clone launches a new instance at the bottleneck's frequency and steals
	// half of its queued work (instance boosting).
	Clone(bottleneck Instance) (Instance, error)
	// Withdraw drains victim, redirecting its load to target (or a
	// dispatcher-chosen instance when target is nil).
	Withdraw(victim, target Instance) error
	// Profile returns the stage service's offline frequency profile.
	Profile() cmp.SpeedupProfile
}

// System is the Command Center's view of the whole deployment.
type System interface {
	// Now returns the current (virtual or wall) time.
	Now() time.Duration
	// Stages returns the pipeline stages in order. Quarantined stages are
	// excluded: the policy must never boost, deboost, clone or withdraw an
	// instance it cannot reach. Callers must not modify the returned slice:
	// views whose stage set is fixed hand out the same one every call.
	Stages() []StageControl
	// Quarantined returns stages currently quarantined by fault handling —
	// unreachable deployments whose instances are excluded from Stages() and
	// whose power draw is excluded from Draw() (their watts are reclaimed
	// into Headroom until re-admission). Engines without fault handling (the
	// DES and the in-process live cluster) return nil.
	Quarantined() []StageControl
	// PowerModel returns the per-core power model.
	PowerModel() cmp.PowerModel
	// Budget returns the application's power budget.
	Budget() cmp.Watts
	// Draw returns the power currently drawn. Quarantined stages draw
	// nothing: a dead instance's watts must be available to survivors.
	Draw() cmp.Watts
	// Headroom returns Budget minus Draw.
	Headroom() cmp.Watts
	// FreeCores returns the number of unallocated physical cores.
	//
	// Contract note: implementations backed by elastic machine capacity (the
	// distributed Command Center) report at least 1 whenever Headroom is
	// positive — even when the headroom cannot fund a whole minimum-power
	// core — because power recycling (Algorithm 2) can free the remainder
	// from donors. Only at zero or negative headroom do they report 0. The
	// quarantine accounting must preserve this: reclaiming a down stage's
	// watts raises Headroom and therefore FreeCores, and re-admission lowers
	// them again.
	FreeCores() int
}

// Instances flattens all live instances of the system in stage order.
func Instances(sys System) []Instance {
	var out []Instance
	for _, st := range sys.Stages() {
		out = append(out, st.Instances()...)
	}
	return out
}
