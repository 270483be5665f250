package arbiter

import (
	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// Ledger is a parent's grant ledger as PlanReclaim scans it: in place and in
// stable order, so a re-admission reads the grants it may cut without
// building a member slice per returnee.
type Ledger interface {
	// Len is the number of entries.
	Len() int
	// Entry returns entry i's actuation handle and grant; ok is false for an
	// entry that cannot donate (quarantined, evicted, the returnee itself).
	Entry(i int) (ctl core.NodeControl, granted cmp.Watts, ok bool)
}

// PlanReclaim is the one rule for taking watts back from a grant ledger so a
// returning member fits: while headroom falls short of need, it cuts the
// member with the largest grant above floor — the first in ledger order on
// ties — to granted − (need − headroom), clamped at floor. Each cut is one
// SetBudgetAction tagged core.ReasonReadmit; decreases only, so the executor's
// budget replay holds Σ granted ≤ cap at every step. It returns the plan and
// the watts still missing once every donor sits at the floor (zero when the
// need is covered).
func PlanReclaim(l Ledger, need, headroom, floor cmp.Watts) (*core.ActionPlan, cmp.Watts) {
	plan := &core.ActionPlan{}
	// Donors are cut in (grant desc, index asc) order, each at most once: a
	// cut either lands on the floor or covers the need. last is the previous
	// cut's place in that order; the next donor is the best entry after it.
	last, lastGrant := -1, cmp.Watts(0)
	for headroom+1e-9 < need {
		best, bestGrant := -1, cmp.Watts(0)
		var bestCtl core.NodeControl
		for i, n := 0, l.Len(); i < n; i++ {
			ctl, g, ok := l.Entry(i)
			if !ok || g <= floor+1e-9 {
				continue
			}
			if last >= 0 && (g > lastGrant || g == lastGrant && i <= last) {
				continue // already cut
			}
			if best < 0 || g > bestGrant {
				best, bestGrant, bestCtl = i, g, ctl
			}
		}
		if best < 0 {
			return plan, need - headroom
		}
		target := max(bestGrant-(need-headroom), floor)
		plan.Actions = append(plan.Actions, &core.SetBudgetAction{
			Node: bestCtl, From: bestGrant, To: target, Reason: core.ReasonReadmit,
		})
		headroom += bestGrant - target
		last, lastGrant = best, bestGrant
	}
	return plan, 0
}
