package live

import (
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
)

func TestWithdrawnInstanceActuallyRetires(t *testing.T) {
	c := twoStageCluster(t, 2)
	st := c.StageByName("A")
	ins := st.Instances()
	victim := ins[1].(*Instance)
	if victim.StageName() != "A" {
		t.Errorf("StageName = %q", victim.StageName())
	}
	if err := st.Withdraw(victim, ins[0]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return victim.Retired() })
	// The retired instance returned its core.
	if c.FreeCores() != 16-2 {
		t.Errorf("free cores = %d after retirement, want 14", c.FreeCores())
	}
	if victim.Served() != 0 {
		t.Errorf("idle victim served %d", victim.Served())
	}
}

func TestWithdrawBusyLiveInstanceDrains(t *testing.T) {
	c := twoStageCluster(t, 2)
	st := c.StageByName("A")
	var done atomic.Uint64
	c.OnComplete(func(q *query.Query) { done.Add(1) })
	// Occupy both instances with long work plus a queued item each.
	for i := 0; i < 4; i++ {
		if err := c.Submit(query.New(query.ID(i), c.Now(), workFor(200*time.Millisecond, time.Millisecond))); err != nil {
			t.Fatal(err)
		}
	}
	ins := st.Instances()
	victim := ins[0].(*Instance)
	if err := st.Withdraw(victim, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return victim.Retired() })
	waitFor(t, 10*time.Second, func() bool { return done.Load() == 4 })
	if c.Completed() != 4 {
		t.Errorf("completed = %d, want 4 (no query lost in the drain)", c.Completed())
	}
}

func TestLiveAccessorsAndUtilization(t *testing.T) {
	c := twoStageCluster(t, 1)
	if c.Budget() != 200 {
		t.Errorf("Budget = %v", c.Budget())
	}
	wantDraw := 2 * cmp.DefaultModel().Power(cmp.MidLevel)
	if !cmp.ApproxEqual(c.Draw(), wantDraw) {
		t.Errorf("Draw = %v, want %v", c.Draw(), wantDraw)
	}
	if c.Submitted() != 0 {
		t.Errorf("Submitted = %d", c.Submitted())
	}
	in := c.StageByName("A").Instances()[0].(*Instance)
	var done atomic.Uint64
	c.OnComplete(func(q *query.Query) { done.Add(1) })
	if err := c.Submit(query.New(1, c.Now(), workFor(100*time.Millisecond, time.Millisecond))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return done.Load() == 1 })
	if in.Served() != 1 {
		t.Errorf("Served = %d", in.Served())
	}
	if u := in.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization = %v", u)
	}
	in.ResetUtilizationEpoch()
	// A fresh epoch with no work reports (near) zero.
	if u := in.Utilization(); u > 0.5 {
		t.Errorf("Utilization after reset = %v", u)
	}
	if c.StageByName("A").Name() != "A" {
		t.Error("stage Name accessor")
	}
	if c.StageByName("missing") != nil {
		t.Error("unknown stage lookup returned non-nil")
	}
}
