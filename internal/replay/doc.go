// Package replay is the offline policy arena: it records the control
// plane's decision path — one core.DecisionRecord (snapshot, plan, outcome)
// per adjust interval — to a bounded, provenance-stamped JSONL trace, and
// re-runs any registered planner against the recorded snapshots in shadow
// mode. A candidate is a core.Planner: one pure Plan function, no setter, no
// live-system access (Divider). Replayed plans are diffed against the
// recorded ones (the recording policy must reproduce its plans
// byte-identically — the determinism gate), and every candidate is scored
// by the projected Equation 1/2/3 bottleneck delay of its shadow-applied
// plans, yielding a policy-vs-policy tail projection table without a single
// live actuation. See DESIGN.md §5l.
package replay
