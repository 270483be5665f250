package fleet

import "powerchief/internal/arbiter"

// NewRebalance builds the fleet's redistribution policy: the level-agnostic
// arbiter.Planner at the cluster→node level with the proportional
// (feed-the-bottleneck) strategy, under its historical name. The Coordinator
// is the arbiter.View it plans against; floors, pinned (freshly re-admitted)
// nodes, hysteresis with leftover redistribution and the feasibility
// scale-down all live in internal/arbiter.
func NewRebalance() *arbiter.Planner {
	return arbiter.New(arbiter.Proportional{}).WithName("fleet-rebalance")
}
