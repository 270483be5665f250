// Package fleet federates Command Centers: a coordinator owns a
// cluster-wide power budget and periodically re-grants per-node budgets from
// each node's reported bottleneck metric — Equation 1 aggregated one level
// up, so the node whose bottleneck stage is slowest attracts the most watts.
//
// The layer reuses the whole control stack one level up from stages:
//
//   - The Coordinator implements core.System where Draw() is the sum of
//     granted node budgets and Budget() the cluster cap, so the existing
//     Executor validates SetBudgetActions with the same budget replay that
//     guards DVFS plans — Σ granted ≤ cap holds at every intermediate state.
//   - The Coordinator is also the arbiter.View that NewRebalance's
//     arbiter.Planner reads: the decision is a pure plan (decreases before
//     increases), core.Tick actuates it through the validating, rolling-back
//     Executor, and every grant lands in the audit log as an EventSetBudget.
//   - The controlplane.Loop drives Adjust epochs, so the same coordinator
//     runs deterministically over sim.Engine virtual time (SimNode,
//     RunFleetSim) and over internal/rpc against real node processes
//     (RPCNode, NodeService).
//
// Robustness is the point of the layer. Nodes move through the shared
// fault.Health state machine on heartbeat deadlines (Healthy → Suspect →
// Down → Recovering → Healthy); a quarantined node's watts are reclaimed
// within one control epoch and redistributed to the survivors; re-admission
// is budget-safe (survivors are shaved down to make room for the floor grant
// before the returning node gets a watt); and every grant carries a fencing
// epoch so a healed partition's pre-quarantine reports are rejected instead
// of steering the allocation with stale state. See DESIGN.md §5h.
//
// Node statistics ride the heartbeat: a NodeService with EnableIngest folds
// local completions into a stats.DeltaAccumulator and ships the pending
// delta on each report — zero extra RPCs, staleness bounded by the
// heartbeat interval — and the coordinator merges every node's digest into
// one exact fleet-wide latency histogram (FleetLatency), applying the same
// epoch-fencing discipline to statistics as to the bottleneck metric. Report
// and Grant — two frames per node per epoch — are hand-encoded binary bodies
// (wire.go). See DESIGN.md §5j.
package fleet
