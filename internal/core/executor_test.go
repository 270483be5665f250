package core

import (
	"errors"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/telemetry"
)

// levelsOf snapshots every instance level by name.
func levelsOf(sys *fakeSystem) map[string]cmp.Level {
	out := make(map[string]cmp.Level)
	for _, st := range sys.stages {
		for _, in := range st.ins {
			out[in.name] = in.level
		}
	}
	return out
}

func TestPlanDoesNotMutateSystem(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
	ingestStats(agg, "B_1", 0, 100*time.Millisecond)
	sys.inst("A_1").queueLen = 4

	p := NewFreqBoost(DefaultConfig())
	log := telemetry.NewAuditLog(16)
	p.SetAudit(log)
	before := levelsOf(sys)
	drawBefore := sys.draw
	plan, out := p.Plan(sys, agg)

	if out.Kind != BoostFrequency {
		t.Fatalf("planned kind = %v, want freq boost", out.Kind)
	}
	if n := len(log.Events()); n != 0 {
		t.Errorf("planning audited %d events; the trail belongs to apply", n)
	}
	if plan.Empty() {
		t.Fatal("plan is empty despite a planned boost")
	}
	if sys.draw != drawBefore {
		t.Errorf("planning changed draw: %v → %v", drawBefore, sys.draw)
	}
	for name, l := range levelsOf(sys) {
		if l != before[name] {
			t.Errorf("planning changed %s level: %v → %v", name, before[name], l)
		}
	}
	if calls := sys.inst("A_1").setLevelCalls; calls != 0 {
		t.Errorf("planning actuated %d DVFS transitions", calls)
	}

	res := Executor{}.Apply(sys, agg, plan)
	if res.Err != nil {
		t.Fatalf("apply failed: %v", res.Err)
	}
	if got := sys.inst("A_1").level; got != out.NewLevel {
		t.Errorf("applied level = %v, want planned %v", got, out.NewLevel)
	}
}

func TestExecutorRollsBackMidPlanFailure(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B", "C")
	// Tight budget: boosting the bottleneck requires recycling from donors
	// first, so the plan carries donor steps before the bottleneck raise.
	sys.budget = sys.draw + 0.1
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
	ingestStats(agg, "B_1", 0, 100*time.Millisecond)
	ingestStats(agg, "C_1", 0, 120*time.Millisecond)
	sys.inst("A_1").queueLen = 4

	p := NewFreqBoost(DefaultConfig())
	plan, out := p.Plan(sys, agg)
	if out.Kind != BoostFrequency {
		t.Fatalf("planned kind = %v, want freq boost", out.Kind)
	}
	if len(plan.Actions) < 2 {
		t.Fatalf("want donor steps + boost in the plan, got %d actions:\n%s", len(plan.Actions), plan.Describe())
	}

	// The bottleneck's DVFS RPC dies mid-plan, after the donors lowered.
	boom := errors.New("rpc: connection lost")
	sys.inst("A_1").setLevelErr = boom

	before := levelsOf(sys)
	drawBefore := sys.draw
	log := telemetry.NewAuditLog(64)
	res := ApplyPlan(log, sys, drawBefore, plan)

	if res.Err == nil || !errors.Is(res.Err, boom) {
		t.Fatalf("apply err = %v, want wrapped %v", res.Err, boom)
	}
	if !res.RolledBack {
		t.Error("executor did not report a rollback")
	}
	if sys.draw != drawBefore {
		t.Errorf("draw after rollback = %v, want %v", sys.draw, drawBefore)
	}
	if sys.draw > sys.budget+1e-9 {
		t.Errorf("draw %v exceeds budget %v after failed plan", sys.draw, sys.budget)
	}
	for name, l := range levelsOf(sys) {
		if l != before[name] {
			t.Errorf("%s level after rollback = %v, want restored %v", name, l, before[name])
		}
	}
	var sawRollback bool
	for _, ev := range log.Events() {
		if ev.Kind == telemetry.EventPlanRollback {
			sawRollback = true
		}
		if ev.Kind == telemetry.EventBoostFreq || ev.Kind == telemetry.EventBoostInst {
			t.Errorf("failed plan audited outcome event %v", ev.Kind)
		}
	}
	if !sawRollback {
		t.Error("no plan-rollback audit event recorded")
	}
}

func TestExecutorRollsBackClone(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	st := sys.stage("A")
	src := sys.inst("A_1")
	victim := sys.inst("B_1")
	boom := errors.New("rpc: connection lost")
	victim.setLevelErr = boom

	plan := &ActionPlan{Actions: []Action{
		&CloneAction{Stage: st, Source: src, Level: src.level},
		&SetLevelAction{Instance: victim, From: victim.level, To: victim.level + 1},
	}}
	drawBefore := sys.draw
	freeBefore := sys.freeCores
	res := Executor{}.Apply(sys, agg0(sys), plan)

	if res.Err == nil {
		t.Fatal("apply succeeded despite the injected failure")
	}
	if len(st.ins) != 1 {
		t.Errorf("stage A has %d instances after rollback, want the clone withdrawn", len(st.ins))
	}
	if sys.draw != drawBefore {
		t.Errorf("draw after rollback = %v, want %v", sys.draw, drawBefore)
	}
	if sys.freeCores != freeBefore {
		t.Errorf("free cores after rollback = %d, want %d", sys.freeCores, freeBefore)
	}
}

func TestExecutorValidateRejectsOverBudget(t *testing.T) {
	sys := newFakeSystem(0, 8, cmp.MidLevel, "A")
	sys.budget = sys.draw // zero headroom
	in := sys.inst("A_1")
	plan := &ActionPlan{Actions: []Action{
		&SetLevelAction{Instance: in, From: in.level, To: cmp.MaxLevel},
	}}
	res := Executor{}.Apply(sys, agg0(sys), plan)
	if res.Err == nil || !errors.Is(res.Err, cmp.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", res.Err)
	}
	if res.Applied != 0 {
		t.Errorf("validation failure applied %d actions", res.Applied)
	}
	if in.setLevelCalls != 0 {
		t.Error("validation failure reached the instance")
	}
}

func TestExecutorSkipsEpochResetOfWithdrawn(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A")
	st := sys.stage("A")
	extra := &fakeInstance{name: "A_2", stage: "A", level: cmp.MidLevel, sys: sys}
	sys.draw += sys.model.Power(extra.level)
	st.ins = append(st.ins, extra)

	plan := &ActionPlan{Actions: []Action{
		&WithdrawAction{Stage: st, Victim: extra},
		&ResetEpochAction{Instance: extra},
		&ResetEpochAction{Instance: sys.inst("A_1")},
	}}
	res := Executor{}.Apply(sys, agg0(sys), plan)
	if res.Err != nil {
		t.Fatalf("apply failed: %v", res.Err)
	}
	if res.Withdrawn != 1 {
		t.Errorf("withdrawn = %d, want 1", res.Withdrawn)
	}
	if extra.epochResets != 0 {
		t.Error("epoch reset reached the withdrawn instance")
	}
	if sys.inst("A_1").epochResets != 1 {
		t.Error("survivor epoch not reset")
	}
}

func TestPlanViewCachesWrappers(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	pv := NewPlanView(sys)
	a1 := pv.Stages()[0].Instances()[0]
	again := pv.Stages()[0].Instances()[0]
	if a1 != again {
		t.Error("same underlying instance wrapped twice — identity comparisons would break")
	}
	flat := Instances(pv)
	if flat[0] != a1 {
		t.Error("Instances() returned a different wrapper for the same instance")
	}
}

// agg0 is an empty aggregator on the fake clock.
func agg0(sys *fakeSystem) *Aggregator { return aggWith(sys, 25*time.Second) }
