package core

import (
	"encoding/json"
	"errors"
	"testing"

	"powerchief/internal/cmp"
)

// TestShadowExecutorRefusesLiveSystems is the type-level actuation guard:
// handing the shadow executor anything but a SnapshotView fails with
// ErrNotShadow before a single action lands on a live actuator.
func TestShadowExecutorRefusesLiveSystems(t *testing.T) {
	sys := newFakeSystem(50, 2, cmp.MidLevel, "a", "b")
	pv := NewPlanView(sys)
	in := pv.Stages()[0].Instances()[0]
	if err := in.SetLevel(in.Level() + 1); err != nil {
		t.Fatal(err)
	}
	plan := pv.Take()

	res := ShadowExecutor{}.Apply(sys, plan)
	if !errors.Is(res.Err, ErrNotShadow) {
		t.Fatalf("Apply on a live system: err = %v, want ErrNotShadow", res.Err)
	}
	if res.Applied != 0 || res.Withdrawn != 0 || len(res.Clones) != 0 {
		t.Fatalf("live system saw actions through the shadow executor: %+v", res)
	}
	live := sys.inst("a_1")
	if live.setLevelCalls != 0 || live.level != cmp.MidLevel {
		t.Fatalf("live actuator touched: %d SetLevel calls, level %d",
			live.setLevelCalls, live.level)
	}
}

// TestShadowApplyMutatesOnlyTheView pins the replay isolation contract: a
// plan shadow-applied to a SnapshotView lands on the view's in-memory
// deployment, while the capture it was built from and the live system it
// was captured from stay byte-identical.
func TestShadowApplyMutatesOnlyTheView(t *testing.T) {
	sys := newFakeSystem(60, 2, cmp.MidLevel, "a", "b")
	sys.inst("a_1").queueLen = 8
	snap := CaptureSnapshot(sys, nil)
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	sv := NewSnapshotView(snap)
	pv := NewPlanView(sv)
	st := pv.Stages()[0]
	in := st.Instances()[0]
	if err := in.SetLevel(in.Level() + 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Clone(in); err != nil {
		t.Fatal(err)
	}
	plan := pv.Take()

	res := ShadowExecutor{}.Apply(sv, plan)
	if res.Err != nil {
		t.Fatalf("shadow apply: %v", res.Err)
	}
	if res.Applied == 0 || len(res.Clones) != 1 {
		t.Fatalf("shadow apply result %+v", res)
	}
	// The plan landed on the view: boosted level, realized clone, grown
	// draw, spent core.
	if got := sv.Stages()[0].Instances()[0].Level(); got != cmp.MidLevel+2 {
		t.Fatalf("shadow level = %d, want %d", got, cmp.MidLevel+2)
	}
	if n := len(sv.Stages()[0].Instances()); n != 2 {
		t.Fatalf("shadow stage has %d instances, want the clone realized", n)
	}
	if sv.Draw() <= snap.Draw || sv.FreeCores() != snap.FreeCores-1 {
		t.Fatalf("shadow ledger: draw %v (was %v), free %d (was %d)",
			sv.Draw(), snap.Draw, sv.FreeCores(), snap.FreeCores)
	}
	// ...and nowhere else.
	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("capture mutated by shadow apply:\n before %s\n after  %s", before, after)
	}
	live := sys.inst("a_1")
	if live.setLevelCalls != 0 || live.level != cmp.MidLevel || len(sys.stage("a").cloned) != 0 {
		t.Fatal("live system touched by shadow apply")
	}
}

// TestSnapshotRoundTripsThroughJSON: a capture survives serialization with
// its physics tables intact — the property the trace format rides on.
func TestSnapshotRoundTripsThroughJSON(t *testing.T) {
	sys := newFakeSystem(40, 1, cmp.MidLevel, "fe", "be")
	snap := CaptureSnapshot(sys, nil)
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}
	back, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(back) {
		t.Fatalf("snapshot drifted across the round trip:\n  %s\n  %s", payload, back)
	}

	// A missing table or an off-ladder level decodes, and is rejected.
	for _, breakIt := range []func(*Snapshot){
		func(s *Snapshot) { s.Power = nil },
		func(s *Snapshot) { s.Stages[1].Profile = nil },
		func(s *Snapshot) { s.Stages[0].Instances[0].Level = cmp.NumLevels },
	} {
		var bad Snapshot
		if err := json.Unmarshal(payload, &bad); err != nil {
			t.Fatal(err)
		}
		breakIt(&bad)
		b, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Validate() == nil {
			t.Errorf("snapshot accepted: %s", b)
		}
	}
}
