package dist

import (
	"testing"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/telemetry"
)

// TestChaosPlanRollbackKeepsDrawUnderBudget injects an actuation failure in
// the middle of a multi-step plan: the donor deboost (a healthy stage) lands
// over RPC, then the dependent boost hits a hung stage service and times
// out. The executor must roll the donor back, so the center never ends an
// interval with its draw over budget or with power freed for a boost that
// never happened — and the audit log must account for the rollback.
func TestChaosPlanRollbackKeepsDrawUnderBudget(t *testing.T) {
	center, _, proxies := startChaosPipeline(t, chaosOptions())

	budget := center.Budget()
	draw0 := center.Draw()
	if draw0 > budget+1e-9 {
		t.Fatalf("pipeline starts over budget: draw %.2f > %.2f", draw0, budget)
	}

	// Plan against the decision overlay: free power on the first stage, then
	// spend it raising the last stage — the donor/recipient shape every
	// recycling boost produces. The view has zero headroom until the deboost,
	// so the raise is only valid if the deboost lands first.
	pv := core.NewPlanView(center)
	stages := pv.Stages()
	donor := stages[0].Instances()[0]
	target := stages[len(stages)-1].Instances()[0]
	if err := donor.SetLevel(cmp.MidLevel - 2); err != nil {
		t.Fatalf("plan deboost: %v", err)
	}
	if err := target.SetLevel(cmp.MidLevel + 1); err != nil {
		t.Fatalf("plan boost: %v", err)
	}
	plan := pv.Take()

	// Hang the recipient's stage service: its SetLevel RPC reads the request
	// and never answers, so only the call deadline gets the executor out.
	proxies[len(proxies)-1].SetMode(ChaosHang)
	proxies[len(proxies)-1].SeverConns()

	audit := telemetry.NewAuditLog(64)
	res := core.ApplyPlan(audit, center, draw0, plan)
	if res.Err == nil {
		t.Fatal("apply succeeded despite the hung stage")
	}
	if !res.RolledBack {
		t.Fatal("partial failure did not roll back")
	}

	// The donor's deboost must have been undone over RPC. Note the hung
	// stage may already be quarantined by its failure, reclaiming its watts
	// from Draw — the invariants that must hold regardless are that the draw
	// never exceeds the budget and that no stage is left at a plan-mutated
	// level (power freed for a boost that never happened).
	if center.Draw() > budget+1e-9 {
		t.Errorf("draw %.4f over budget %.4f after rollback", center.Draw(), budget)
	}
	donorAfter := center.Stages()[0].Instances()[0]
	if donorAfter.Level() != cmp.MidLevel {
		t.Errorf("donor %s at level %d after rollback, want %d",
			donorAfter.Name(), int(donorAfter.Level()), int(cmp.MidLevel))
	}

	// The audit trail accounts for the abandoned plan.
	var rolledBack bool
	for _, ev := range audit.Events() {
		if ev.Kind == telemetry.EventPlanRollback {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Error("no plan-rollback event in the audit log")
	}

	// The recipient never saw the boost either — whether the failure left it
	// merely suspect (still listed) or quarantined, its level is untouched.
	for _, st := range append(center.Stages(), center.Quarantined()...) {
		for _, in := range st.Instances() {
			if in.Level() != cmp.MidLevel {
				t.Errorf("instance %s at level %d after the failed plan, want %d",
					in.Name(), int(in.Level()), int(cmp.MidLevel))
			}
		}
	}
}
