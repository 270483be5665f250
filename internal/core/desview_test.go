package core

import (
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
)

// newDESFixture builds a real simulated two-stage system behind the Command
// Center interfaces.
func newDESFixture(t *testing.T, budget cmp.Watts) (*sim.Engine, *stage.System, System) {
	t.Helper()
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), budget)
	sys, err := stage.NewSystem(eng, chip, []stage.Spec{
		{Name: "A", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.2), Instances: 1, Level: cmp.MidLevel},
		{Name: "leaf", Kind: stage.FanOut, Profile: cmp.NewRooflineProfile(0.4), Instances: 2, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys, NewDESView(sys)
}

func TestDESViewSystemSurface(t *testing.T) {
	_, sys, view := newDESFixture(t, 100)
	if view.Budget() != 100 {
		t.Error("budget mismatch")
	}
	if view.Draw() != sys.Chip().Draw() {
		t.Error("draw mismatch")
	}
	if view.FreeCores() != 13 {
		t.Errorf("free cores = %d, want 13", view.FreeCores())
	}
	stages := view.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %d", len(stages))
	}
	if !stages[0].CanScale() {
		t.Error("pipeline stage must scale")
	}
	if stages[1].CanScale() {
		t.Error("fan-out stage must not scale")
	}
	if stages[0].Profile() == nil {
		t.Error("profile missing")
	}
}

func TestDESViewCloneAndWithdrawThroughInterface(t *testing.T) {
	eng, sys, view := newDESFixture(t, 100)
	st := view.Stages()[0]
	src := st.Instances()[0]
	clone, err := st.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	if clone.StageName() != "A" {
		t.Error("clone stage mismatch")
	}
	if len(st.Instances()) != 2 {
		t.Error("clone not visible through the view")
	}
	if err := st.Withdraw(clone, src); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(st.Instances()) != 1 {
		t.Error("withdraw not visible through the view")
	}
	_ = sys
}

// TestDESViewInstancesOncePerMembership: while the stage's membership holds,
// Instances hands back the same slice without allocating; a clone, a
// withdraw and the drained victim's retirement each bring a new one.
func TestDESViewInstancesOncePerMembership(t *testing.T) {
	eng, sys, view := newDESFixture(t, 100)
	st := view.Stages()[0]
	same := func(a, b []Instance) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	held := st.Instances()
	if !same(st.Instances(), held) {
		t.Fatal("an unchanged stage handed out a new list")
	}
	if got := testing.AllocsPerRun(100, func() { _ = st.Instances() }); got != 0 {
		t.Errorf("an unchanged stage's list costs %.1f allocations", got)
	}
	changed := func(what string, want int) {
		t.Helper()
		got := st.Instances()
		if same(got, held) || len(got) != want {
			t.Fatalf("after %s: %d instances, new list %v; want %d in a new list", what, len(got), !same(got, held), want)
		}
		held = got
	}
	src := held[0]
	clone, err := st.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	changed("a clone", 2)
	// The source is busy when withdrawn, so it drains before it retires.
	sys.Submit(query.New(1, 0, [][]time.Duration{{time.Second}, {time.Millisecond, time.Millisecond}}))
	if err := st.Withdraw(src, clone); err != nil {
		t.Fatal(err)
	}
	changed("a withdraw", 1)
	if src.(*stage.Instance).Retired() {
		t.Fatal("the withdrawn source retired without draining")
	}
	eng.Run()
	if !src.(*stage.Instance).Retired() {
		t.Fatal("the withdrawn source never retired")
	}
	changed("the drained retire", 1)
}

func TestDESViewRejectsForeignInstances(t *testing.T) {
	_, _, view := newDESFixture(t, 100)
	st := view.Stages()[0]
	ghost := &fakeInstance{name: "ghost", stage: "A"}
	if _, err := st.Clone(ghost); err == nil {
		t.Error("clone of a non-DES instance accepted")
	}
	if err := st.Withdraw(ghost, nil); err == nil {
		t.Error("withdraw of a non-DES instance accepted")
	}
	real := st.Instances()[0]
	if err := st.Withdraw(real, ghost); err == nil {
		t.Error("withdraw with a non-DES target accepted")
	}
}

func TestDESViewNilSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDESView(nil) did not panic")
		}
	}()
	NewDESView(nil)
}

// TestPowerChiefOnRealDES drives the full policy against the real simulated
// system (not fakes): overload stage A, tick the policy, and verify it
// reshapes the deployment within the budget.
func TestPowerChiefOnRealDES(t *testing.T) {
	eng := sim.NewEngine()
	m := cmp.DefaultModel()
	budget := 3 * m.Power(cmp.MidLevel)
	chip := cmp.NewChip(16, m, budget)
	sys, err := stage.NewSystem(eng, chip, []stage.Spec{
		{Name: "ASR", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.15), Instances: 1, Level: cmp.MidLevel},
		{Name: "QA", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.25), Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	view := NewDESView(sys)
	agg := NewAggregator(25*time.Second, eng.Now)
	sys.OnComplete(agg.Ingest)
	pc := NewPowerChief(DefaultConfig())

	// Heavy QA demand: 600ms per query at 2.5 qps → QA overloads.
	id := query.ID(0)
	for at := time.Duration(0); at < 300*time.Second; at += 400 * time.Millisecond {
		at := at
		id++
		qid := id
		eng.ScheduleAt(at, func() {
			sys.Submit(query.New(qid, at, [][]time.Duration{
				{150 * time.Millisecond},
				{900 * time.Millisecond},
			}))
		})
	}
	acted := 0
	stop := eng.Every(25*time.Second, func() {
		if out := pc.Adjust(view, agg); out.Kind != BoostNone {
			acted++
		}
		if err := chip.CheckInvariant(); err != nil {
			t.Fatalf("budget invariant broken mid-run: %v", err)
		}
	})
	eng.RunUntil(600 * time.Second)
	stop()
	if acted == 0 {
		t.Fatal("policy never acted on the real DES")
	}
	// QA must have been reinforced: more instances or a higher level.
	qa := sys.Stage("QA").Active()
	reinforced := len(qa) > 1
	for _, in := range qa {
		if in.Level() > cmp.MidLevel {
			reinforced = true
		}
	}
	if !reinforced {
		t.Error("QA was never boosted despite sustained overload")
	}
	if err := chip.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
