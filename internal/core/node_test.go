package core

import (
	"errors"
	"testing"

	"powerchief/internal/cmp"
	"powerchief/internal/telemetry"
)

// fakeNode is an in-memory NodeControl: its granted budget is mirrored into
// the fake system's draw, the same ledger arithmetic the fleet coordinator
// maintains (cluster Draw = Σ granted node budgets).
type fakeNode struct {
	name   string
	budget cmp.Watts
	sys    *fakeSystem

	setCalls  int
	setErr    error // injected actuation failure (an unreachable node)
	errAfterN int   // fail once setCalls exceeds this (0 = use setErr always)
}

func (f *fakeNode) Name() string      { return f.name }
func (f *fakeNode) Budget() cmp.Watts { return f.budget }

func (f *fakeNode) SetBudget(w cmp.Watts) error {
	f.setCalls++
	if f.setErr != nil && (f.errAfterN == 0 || f.setCalls > f.errAfterN) {
		return f.setErr
	}
	f.sys.draw += w - f.budget
	f.budget = w
	return nil
}

// clusterSystem builds a stage-less fake system representing a fleet: draw is
// the sum of the returned nodes' granted budgets.
func clusterSystem(cap cmp.Watts, grants ...cmp.Watts) (*fakeSystem, []*fakeNode) {
	sys := &fakeSystem{model: cmp.DefaultModel(), budget: cap}
	nodes := make([]*fakeNode, len(grants))
	for i, g := range grants {
		nodes[i] = &fakeNode{name: string(rune('a' + i)), budget: g, sys: sys}
		sys.draw += g
	}
	return sys, nodes
}

// TestSetBudgetPlanApplies pins the happy path: a decrease-before-increase
// plan applies in order, updates every node, and audits each grant.
func TestSetBudgetPlanApplies(t *testing.T) {
	sys, nodes := clusterSystem(100, 50, 50)
	audit := telemetry.NewAuditLog(16)
	plan := &ActionPlan{Actions: []Action{
		&SetBudgetAction{Node: nodes[0], From: 50, To: 30, Reason: ReasonRebalance},
		&SetBudgetAction{Node: nodes[1], From: 50, To: 70, Reason: ReasonRebalance},
	}}
	res := ApplyPlan(audit, sys, sys.draw, plan)
	if res.Err != nil {
		t.Fatalf("apply: %v", res.Err)
	}
	if nodes[0].budget != 30 || nodes[1].budget != 70 {
		t.Fatalf("grants = %v, %v; want 30, 70", nodes[0].budget, nodes[1].budget)
	}
	if sys.draw != 100 {
		t.Fatalf("cluster draw = %v, want 100", sys.draw)
	}
	events := audit.Events()
	if len(events) != 2 {
		t.Fatalf("audited %d events, want 2", len(events))
	}
	if events[0].Kind != telemetry.EventSetBudget || events[0].Node != "a" ||
		events[0].PrevWatts != 50 || events[0].GrantedWatts != 30 || events[0].Detail != "rebalance" {
		t.Fatalf("bad first audit event: %+v", events[0])
	}
}

// TestSetBudgetValidateRejectsOverCap pins the invariant: a plan whose
// intermediate or final state pushes Σ granted over the cluster cap is
// rejected before any actuation.
func TestSetBudgetValidateRejectsOverCap(t *testing.T) {
	sys, nodes := clusterSystem(100, 50, 50)
	// Increase before decrease: intermediate state 50+70 = 120 > 100.
	plan := &ActionPlan{Actions: []Action{
		&SetBudgetAction{Node: nodes[1], From: 50, To: 70},
		&SetBudgetAction{Node: nodes[0], From: 50, To: 30},
	}}
	err := Executor{}.Validate(sys, plan)
	if !errors.Is(err, cmp.ErrBudgetExceeded) {
		t.Fatalf("validate = %v, want ErrBudgetExceeded", err)
	}
	if nodes[0].setCalls+nodes[1].setCalls != 0 {
		t.Fatalf("validation must not actuate")
	}

	// Negative grants never validate.
	bad := &ActionPlan{Actions: []Action{&SetBudgetAction{Node: nodes[0], From: 50, To: -1}}}
	if err := (Executor{}).Validate(sys, bad); err == nil {
		t.Fatalf("negative grant validated")
	}
}

// TestSetBudgetRollsBackMidPlanFailure pins the robustness contract: when a
// later grant fails (node died mid-plan), earlier grants are restored in
// reverse order so the ledger lands where it started, not in between.
func TestSetBudgetRollsBackMidPlanFailure(t *testing.T) {
	sys, nodes := clusterSystem(100, 50, 30)
	boom := errors.New("node unreachable")
	nodes[1].setErr = boom
	audit := telemetry.NewAuditLog(16)
	plan := &ActionPlan{Actions: []Action{
		&SetBudgetAction{Node: nodes[0], From: 50, To: 40, Reason: ReasonRebalance},
		&SetBudgetAction{Node: nodes[1], From: 30, To: 40, Reason: ReasonRebalance},
	}}
	res := ApplyPlan(audit, sys, sys.draw, plan)
	if !errors.Is(res.Err, boom) {
		t.Fatalf("apply err = %v, want wrapped %v", res.Err, boom)
	}
	if !res.RolledBack {
		t.Fatalf("expected rollback")
	}
	if nodes[0].budget != 50 {
		t.Fatalf("node a grant = %v after rollback, want 50", nodes[0].budget)
	}
	if sys.draw != 80 {
		t.Fatalf("cluster draw = %v after rollback, want 80", sys.draw)
	}
	var sawRollback bool
	for _, e := range audit.Events() {
		if e.Kind == telemetry.EventPlanRollback {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Fatalf("rollback not audited")
	}
}
