package fleet

import (
	"fmt"
	"math"
	"testing"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// fakeNodeCtl is a ledger-less NodeControl for planner tests.
type fakeNodeCtl struct {
	name    string
	granted cmp.Watts
	failSet bool
	sets    []cmp.Watts
}

func (f *fakeNodeCtl) Name() string      { return f.name }
func (f *fakeNodeCtl) Budget() cmp.Watts { return f.granted }
func (f *fakeNodeCtl) SetBudget(w cmp.Watts) error {
	if f.failSet {
		return fmt.Errorf("fake: node %s unreachable", f.name)
	}
	f.granted = w
	f.sets = append(f.sets, w)
	return nil
}

// fakeCluster is a hand-built arbiter.View.
type fakeCluster struct {
	budget, floor, hyst cmp.Watts
	nodes               []*fakeNodeCtl
	metrics             []time.Duration
	pinned              []bool
	// held is watts granted outside the healthy set (unreclaimed quarantine).
	held cmp.Watts
}

func (f *fakeCluster) Now() time.Duration         { return 0 }
func (f *fakeCluster) PowerModel() cmp.PowerModel { return cmp.DefaultModel() }
func (f *fakeCluster) Budget() cmp.Watts          { return f.budget }
func (f *fakeCluster) Draw() cmp.Watts {
	sum := f.held
	for _, n := range f.nodes {
		sum += n.granted
	}
	return sum
}
func (f *fakeCluster) Headroom() cmp.Watts              { return f.budget - f.Draw() }
func (f *fakeCluster) FreeCores() int                   { return 0 }
func (f *fakeCluster) Stages() []core.StageControl      { return nil }
func (f *fakeCluster) Quarantined() []core.StageControl { return nil }
func (f *fakeCluster) Floor() cmp.Watts                 { return f.floor }
func (f *fakeCluster) Hysteresis() cmp.Watts            { return f.hyst }
func (f *fakeCluster) Members() []arbiter.Member {
	out := make([]arbiter.Member, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = arbiter.Member{Control: n, Granted: n.granted, Metric: f.metrics[i], Pinned: f.pinned[i]}
	}
	return out
}

var _ arbiter.View = (*fakeCluster)(nil)

func newFakeCluster(budget, floor, hyst cmp.Watts, grants []cmp.Watts, metrics []time.Duration) *fakeCluster {
	f := &fakeCluster{budget: budget, floor: floor, hyst: hyst, metrics: metrics, pinned: make([]bool, len(grants))}
	for i, g := range grants {
		f.nodes = append(f.nodes, &fakeNodeCtl{name: fmt.Sprintf("n%d", i), granted: g})
	}
	return f
}

func wattsNear(a, b cmp.Watts) bool { return math.Abs(float64(a-b)) < 1e-6 }

// TestRebalanceMetricWeighted: from a cold start, every node gets the floor
// plus a share of the extra proportional to its bottleneck metric, and the
// pool is fully allocated.
func TestRebalanceMetricWeighted(t *testing.T) {
	fc := newFakeCluster(60, 10, 0.1,
		[]cmp.Watts{0, 0, 0},
		[]time.Duration{time.Second, 2 * time.Second, 3 * time.Second})
	out := NewRebalance().Adjust(fc, nil)
	if out.Kind != core.BoostNone {
		t.Fatalf("outcome %v, want none", out.Kind)
	}
	want := []cmp.Watts{15, 20, 25} // 10 + 30×(1|2|3)/6
	for i, n := range fc.nodes {
		if !wattsNear(n.granted, want[i]) {
			t.Errorf("node %d granted %v, want %v", i, n.granted, want[i])
		}
	}
	if !wattsNear(fc.Draw(), 60) {
		t.Errorf("pool not fully allocated: draw %v of 60", fc.Draw())
	}
}

// TestRebalanceOrdersDecreasesFirst: the emitted plan frees watts before
// spending them, so the executor's in-order budget replay never sees an
// over-cap intermediate state.
func TestRebalanceOrdersDecreasesFirst(t *testing.T) {
	// Node 0 is over its target, node 1 under; the pool is fully granted.
	fc := newFakeCluster(60, 10, 0.1,
		[]cmp.Watts{45, 15},
		[]time.Duration{time.Second, 3 * time.Second})
	plan, _ := NewRebalance().Plan(fc, nil)
	if len(plan.Actions) != 2 {
		t.Fatalf("plan has %d actions, want 2:\n%s", len(plan.Actions), plan.Describe())
	}
	first := plan.Actions[0].(*core.SetBudgetAction)
	second := plan.Actions[1].(*core.SetBudgetAction)
	if first.To >= first.From {
		t.Errorf("first action is not a decrease: %s", first.Describe())
	}
	if second.To <= second.From {
		t.Errorf("second action is not an increase: %s", second.Describe())
	}
	if err := (core.Executor{}).Validate(fc, plan); err != nil {
		t.Errorf("ordered plan failed validation: %v", err)
	}
}

// TestRebalanceHysteresisHoldsSteadyState: metric noise below the threshold
// produces an empty plan — the flap guard.
func TestRebalanceHysteresisHoldsSteadyState(t *testing.T) {
	fc := newFakeCluster(60, 10, 5,
		[]cmp.Watts{30, 30},
		[]time.Duration{time.Second, 1100 * time.Millisecond})
	plan, _ := NewRebalance().Plan(fc, nil)
	if !plan.Empty() {
		t.Fatalf("noisy metrics moved budgets:\n%s", plan.Describe())
	}
}

// TestRebalanceRedistributesLeftover: when hysteresis keeps (or a shrunken
// fleet) leave headroom unallocated, the leftover is spread anyway — the
// flap guard must never strand watts.
func TestRebalanceRedistributesLeftover(t *testing.T) {
	// Both nodes' computed moves (25→30) sit exactly at the hysteresis, so
	// both are kept — but 10 W of the pool would go unallocated.
	fc := newFakeCluster(60, 10, 5,
		[]cmp.Watts{25, 25},
		[]time.Duration{time.Second, time.Second})
	NewRebalance().Adjust(fc, nil)
	if !wattsNear(fc.Draw(), 60) {
		t.Fatalf("leftover stranded: draw %v of 60 (grants %v, %v)",
			fc.Draw(), fc.nodes[0].granted, fc.nodes[1].granted)
	}
}

// TestRebalancePinnedHoldsFloor: a freshly re-admitted node in cooldown
// holds the floor and does not compete for extra watts.
func TestRebalancePinnedHoldsFloor(t *testing.T) {
	fc := newFakeCluster(60, 10, 0.1,
		[]cmp.Watts{25, 25, 10},
		[]time.Duration{time.Second, time.Second, 10 * time.Second})
	fc.pinned[2] = true
	NewRebalance().Adjust(fc, nil)
	if !wattsNear(fc.nodes[2].granted, 10) {
		t.Errorf("pinned node granted %v, want the 10W floor", fc.nodes[2].granted)
	}
	if !wattsNear(fc.Draw(), 60) {
		t.Errorf("pool not fully allocated: draw %v of 60", fc.Draw())
	}
}

// TestRebalanceExcludesQuarantineHeldWatts: watts still granted to a
// quarantined node (not yet reclaimed) stay out of the distributable pool,
// so Σ granted ≤ budget holds even mid-reclamation.
func TestRebalanceExcludesQuarantineHeldWatts(t *testing.T) {
	fc := newFakeCluster(60, 10, 0.1,
		[]cmp.Watts{20, 20},
		[]time.Duration{time.Second, time.Second})
	fc.held = 15 // a downed node still holds 15 W
	NewRebalance().Adjust(fc, nil)
	if fc.Draw() > 60+1e-9 {
		t.Fatalf("draw %v over the 60W budget", fc.Draw())
	}
	if got := fc.nodes[0].granted + fc.nodes[1].granted; !wattsNear(got, 45) {
		t.Errorf("healthy grants %v, want the 45W pool outside the held watts", got)
	}
}

// TestRebalanceRollsBackOnGrantFailure: a node dying between the heartbeat
// and its grant fails the plan mid-apply; the executor restores the applied
// prefix, so the ledger never straddles two allocations.
func TestRebalanceRollsBackOnGrantFailure(t *testing.T) {
	fc := newFakeCluster(60, 10, 0.1,
		[]cmp.Watts{0, 0},
		[]time.Duration{time.Second, time.Second})
	fc.nodes[1].failSet = true
	out := NewRebalance().Adjust(fc, nil)
	if out.Kind != core.BoostNone {
		t.Fatalf("outcome %v, want none", out.Kind)
	}
	if got := fc.nodes[0].granted; !wattsNear(got, 0) {
		t.Errorf("node 0 granted %v after rollback, want its original 0", got)
	}
	if len(fc.nodes[0].sets) != 2 {
		t.Errorf("node 0 saw %d grants, want apply+rollback", len(fc.nodes[0].sets))
	}
}
