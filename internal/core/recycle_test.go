package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"powerchief/internal/cmp"
)

func TestRecycleFromInstStepsJustEnough(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	m := sys.model
	donor := sys.inst("A_1")
	oneStep := m.Power(cmp.MidLevel) - m.Power(cmp.MidLevel-1)

	got := Recycler{}.RecycleFromInst(m, donor, oneStep/2)
	if got < oneStep/2 {
		t.Errorf("recycled %v, need %v", got, oneStep/2)
	}
	// A half-step need costs exactly one level.
	if donor.level != cmp.MidLevel-1 {
		t.Errorf("donor level = %v, want one step down", donor.level)
	}
}

func TestRecycleFromInstCapsAtFloor(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	m := sys.model
	donor := sys.inst("A_1")
	max := m.Power(cmp.MidLevel) - m.Power(0)

	got := Recycler{}.RecycleFromInst(m, donor, 1000)
	if !cmp.ApproxEqual(got, max) {
		t.Errorf("recycled %v, want all %v", got, max)
	}
	if donor.level != 0 {
		t.Errorf("donor level = %v, want floor", donor.level)
	}
	// Already at the floor: nothing more.
	if got := (Recycler{}).RecycleFromInst(m, donor, 1); got != 0 {
		t.Errorf("floor donor recycled %v", got)
	}
}

func TestRecycleFromInstRespectsCustomFloor(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	donor := sys.inst("A_1")
	Recycler{Floor: 4}.RecycleFromInst(sys.model, donor, 1000)
	if donor.level != 4 {
		t.Errorf("donor level = %v, want custom floor 4", donor.level)
	}
}

func TestRecycleFromInstZeroNeed(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	if got := (Recycler{}).RecycleFromInst(sys.model, sys.inst("A_1"), 0); got != 0 {
		t.Errorf("zero need recycled %v", got)
	}
	if sys.inst("A_1").level != cmp.MidLevel {
		t.Error("zero need changed the donor")
	}
}

func TestRecycleWalksDonorsInOrder(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A", "B", "C")
	m := sys.model
	// Need slightly more than one donor can give: A drains fully, B steps.
	fullDonor := m.Power(cmp.MidLevel) - m.Power(0)
	donors := []Instance{sys.inst("A_1"), sys.inst("B_1"), sys.inst("C_1")}
	got := Recycler{}.Recycle(m, donors, fullDonor+0.1)
	if got < fullDonor+0.1 {
		t.Errorf("recycled %v, need %v", got, fullDonor+0.1)
	}
	if sys.inst("A_1").level != 0 {
		t.Error("first donor not drained")
	}
	if sys.inst("B_1").level >= cmp.MidLevel {
		t.Error("second donor untouched")
	}
	if sys.inst("C_1").level != cmp.MidLevel {
		t.Error("third donor touched unnecessarily")
	}
}

func TestRecycleShortfallReported(t *testing.T) {
	sys := newFakeSystem(100, 4, 0, "A") // donor already at floor
	got := Recycler{}.Recycle(sys.model, []Instance{sys.inst("A_1")}, 5)
	if got != 0 {
		t.Errorf("recycled %v from floor donors", got)
	}
}

func TestDonorsFromRankingExcludesBottleneckAndOrders(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A", "B", "C")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 0, 300*time.Millisecond)
	ingestStats(agg, "B_1", 0, 200*time.Millisecond)
	ingestStats(agg, "C_1", 0, 100*time.Millisecond)
	ranked := Identifier{Metric: MetricExpectedDelay}.Rank(sys, agg)
	if ranked[0].Instance.Name() != "A_1" {
		t.Fatalf("bottleneck = %s", ranked[0].Instance.Name())
	}
	donors := DonorsFromRanking(ranked, ranked[0].Instance)
	if len(donors) != 2 {
		t.Fatalf("donors = %d", len(donors))
	}
	if donors[0].Name() != "C_1" || donors[1].Name() != "B_1" {
		t.Errorf("donor order = %s,%s; want fastest first", donors[0].Name(), donors[1].Name())
	}
}

func TestPlanWithdrawsSelectsLeastUtilized(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	st := sys.stage("A")
	// Three instances with varying utilization.
	for i, u := range []float64{0.5, 0.15, 0.05} {
		if i == 0 {
			st.ins[0].util = u
			continue
		}
		in := &fakeInstance{name: st.name + "_" + string(rune('1'+i)), stage: st.name, level: cmp.MidLevel, util: u, sys: sys}
		st.ins = append(st.ins, in)
	}
	agg := aggWith(sys, 25*time.Second)
	ranked := Identifier{}.Rank(sys, agg)
	plans := PlanWithdraws(sys, ranked, 0.2)
	if len(plans) != 1 {
		t.Fatalf("plans = %d, want 1 (at most one per stage)", len(plans))
	}
	if plans[0].Victim.Utilization() != 0.05 {
		t.Errorf("victim utilization = %v, want the least-utilized", plans[0].Victim.Utilization())
	}
}

func TestPlanWithdrawsNeverLastInstance(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	sys.inst("A_1").util = 0.0 // fully idle, but the only instance
	agg := aggWith(sys, 25*time.Second)
	plans := PlanWithdraws(sys, Identifier{}.Rank(sys, agg), 0.2)
	if len(plans) != 0 {
		t.Fatal("planned withdraw of the last instance")
	}
}

func TestPlanWithdrawsSkipsNonScalableStages(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "leaf")
	st := sys.stage("leaf")
	st.scalable = false
	st.ins = append(st.ins, &fakeInstance{name: "leaf_2", stage: "leaf", level: cmp.MidLevel, sys: sys})
	agg := aggWith(sys, 25*time.Second)
	plans := PlanWithdraws(sys, Identifier{}.Rank(sys, agg), 0.2)
	if len(plans) != 0 {
		t.Fatal("planned withdraw from a fan-out stage")
	}
}

func TestPlanWithdrawsSkipsBusyInstances(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	st := sys.stage("A")
	st.ins[0].util = 0.9
	st.ins = append(st.ins, &fakeInstance{name: "A_2", stage: "A", level: cmp.MidLevel, util: 0.5, sys: sys})
	agg := aggWith(sys, 25*time.Second)
	plans := PlanWithdraws(sys, Identifier{}.Rank(sys, agg), 0.2)
	if len(plans) != 0 {
		t.Fatal("planned withdraw of busy instances")
	}
}

func TestPlanWithdrawsTargetIsFastest(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A")
	st := sys.stage("A")
	st.ins[0].util = 0.9
	st.ins = append(st.ins,
		&fakeInstance{name: "A_2", stage: "A", level: cmp.MidLevel, util: 0.05, sys: sys},
		&fakeInstance{name: "A_3", stage: "A", level: cmp.MidLevel, util: 0.6, sys: sys},
	)
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 0, 100*time.Millisecond) // fastest by metric
	ingestStats(agg, "A_2", 0, 300*time.Millisecond)
	ingestStats(agg, "A_3", 0, 500*time.Millisecond)
	ranked := Identifier{Metric: MetricExpectedDelay}.Rank(sys, agg)
	plans := PlanWithdraws(sys, ranked, 0.2)
	if len(plans) != 1 {
		t.Fatalf("plans = %d", len(plans))
	}
	if plans[0].Victim.Name() != "A_2" {
		t.Errorf("victim = %s, want A_2", plans[0].Victim.Name())
	}
	if plans[0].Target == nil || plans[0].Target.Name() != "A_1" {
		t.Errorf("target = %v, want the fastest instance A_1", plans[0].Target)
	}
}

// stepDownLoop is PlanShed's reference, actuating as it decides: step the
// highest-level instance — the first on ties — down one level until the draw
// fits target. It reports a shortfall when every instance reached level 0.
func stepDownLoop(sys *fakeSystem, target cmp.Watts) (short bool) {
	for sys.draw > target+1e-9 {
		var best *fakeInstance
		for _, st := range sys.stages {
			for _, in := range st.ins {
				if best == nil || in.level > best.level {
					best = in
				}
			}
		}
		if best == nil || best.level == 0 {
			return true
		}
		if err := best.SetLevel(best.level - 1); err != nil {
			panic(err)
		}
	}
	return false
}

// randomLevels builds a fake system of 1–4 stages of 1–4 instances at levels
// drawn from seed.
func randomLevels(seed int64) *fakeSystem {
	r := rand.New(rand.NewSource(seed))
	sys := &fakeSystem{model: cmp.DefaultModel(), budget: 1000}
	for s := 0; s < 1+r.Intn(4); s++ {
		st := &fakeStage{name: fmt.Sprintf("S%d", s), sys: sys}
		for i := 0; i < 1+r.Intn(4); i++ {
			l := cmp.Level(r.Intn(cmp.NumLevels))
			st.ins = append(st.ins, &fakeInstance{name: fmt.Sprintf("S%d_%d", s, i+1), stage: st.name, level: l, sys: sys})
			sys.draw += sys.model.Power(l)
		}
		sys.stages = append(sys.stages, st)
	}
	return sys
}

// TestPlanShedMatchesStepDownLoop runs seeded random level sets and targets
// through PlanShed + Executor and through the reference loop: on every
// success path both actuate the same steps in the same order and land on the
// same draw, bit for bit; no step goes below level 0; and a target below the
// all-at-floor draw is reported short by both.
func TestPlanShedMatchesStepDownLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shorts := 0
	for trial := 0; trial < 1000; trial++ {
		seed := rng.Int63()
		ref, sys := randomLevels(seed), randomLevels(seed)
		target := cmp.Watts(rng.Float64()*1.1) * ref.draw
		refShort := stepDownLoop(ref, target)

		plan := &ActionPlan{}
		draw := PlanShed(plan, sys.Stages(), sys.model, sys.draw, target, ReasonReadmit)
		if short := draw > target+1e-9; short != refShort {
			t.Fatalf("seed %d: PlanShed short=%v, reference short=%v", seed, short, refShort)
		}
		for _, act := range plan.Actions {
			a := act.(*SetLevelAction)
			if a.To < 0 || a.To != a.From-1 || a.Reason != ReasonReadmit {
				t.Fatalf("seed %d: bad step %s (reason %d)", seed, a.Describe(), a.Reason)
			}
		}
		if refShort {
			shorts++
			continue
		}
		if res := (Executor{}).Apply(sys, nil, plan); res.Err != nil {
			t.Fatalf("seed %d: apply: %v", seed, res.Err)
		}
		if !slices.Equal(sys.actuated, ref.actuated) {
			t.Fatalf("seed %d: actuated %v, reference %v", seed, sys.actuated, ref.actuated)
		}
		if draw != sys.draw || sys.draw != ref.draw {
			t.Fatalf("seed %d: planned draw %v, applied %v, reference %v", seed, draw, sys.draw, ref.draw)
		}
	}
	if shorts == 0 || shorts == 1000 {
		t.Fatalf("%d of 1000 trials short: the targets do not cover both paths", shorts)
	}
}

// TestRecycleTagsDonorSteps: the donor steps Algorithm 2 plans to fund a
// boost are recorded with reason recycle, the boost itself with reason
// boost — a recorded plan tells the two apart.
func TestRecycleTagsDonorSteps(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B", "C")
	sys.budget = sys.draw + 0.1 // the boost needs recycled watts
	agg := agg0(sys)
	ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
	ingestStats(agg, "B_1", 0, 100*time.Millisecond)
	ingestStats(agg, "C_1", 0, 120*time.Millisecond)
	sys.inst("A_1").queueLen = 4

	plan, out := NewFreqBoost(DefaultConfig()).Plan(sys, agg)
	if out.Kind != BoostFrequency || out.Recycled <= 0 {
		t.Fatalf("outcome %+v, want a recycle-funded frequency boost", out)
	}
	recs := EncodePlan(plan)
	if len(recs) < 2 {
		t.Fatalf("plan %v, want donor steps and the boost", recs)
	}
	for _, r := range recs[:len(recs)-1] {
		if r.Instance == "A_1" || r.Reason != "recycle" {
			t.Errorf("donor step %+v, want a donor tagged recycle", r)
		}
	}
	if last := recs[len(recs)-1]; last.Instance != "A_1" || last.Reason != "boost" {
		t.Errorf("boost step %+v, want A_1 tagged boost", last)
	}
}
