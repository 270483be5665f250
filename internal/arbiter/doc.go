// Package arbiter is the level-agnostic budget redistribution mechanism of
// the control plane: one planner that re-splits a parent power budget across
// competing members — applications sharing a chip, nodes sharing a cluster —
// from their reported Equation 1 bottleneck metrics and QoS headroom.
//
// Cluster→node and chip→app are the same shape: a core.System whose Draw()
// is the sum of member grants, a set of members each actuated through
// core.NodeControl, and a redistribution epoch that frees watts before it
// spends them so the validating core.Executor holds Σ grants ≤ budget at
// every intermediate state. The Planner here owns that arithmetic — floor,
// metric-weighted shares, pinned members, hysteresis with leftover
// redistribution, feasibility scale-down, decreases-before-increases — and
// pluggable Strategy values own only the weighting: Proportional is the
// PowerChief-style feed-the-bottleneck rule (and, with QoS targets, weights
// by slowdown against each member's target), Fairness is the FastCap-style
// fairness-weighted divider, and Marginal weights by how much the
// bottleneck stage protrudes over the rest of its pipeline (the per-stage
// Equation 1 breakdown carried in Member.Breakdown).
//
// fleet.NewRebalance is this planner at the cluster→node level, planning
// against the fleet Coordinator as its View; the multi-tenant harness runs
// it at the chip→app level over a core.BudgetDomain hierarchy. Its Adjust is
// core.Tick. See DESIGN.md §5k.
package arbiter
