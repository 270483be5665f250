package arbiter

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// fakeMemberCtl is a ledger-less NodeControl for planner tests.
type fakeMemberCtl struct {
	mu      sync.Mutex
	name    string
	granted cmp.Watts
	failSet bool
	sets    []cmp.Watts
}

func (f *fakeMemberCtl) Name() string { return f.name }
func (f *fakeMemberCtl) Budget() cmp.Watts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.granted
}
func (f *fakeMemberCtl) SetBudget(w cmp.Watts) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSet {
		return fmt.Errorf("fake: member %s unreachable", f.name)
	}
	f.granted = w
	f.sets = append(f.sets, w)
	return nil
}

// fakeView is a hand-built arbiter View over fake members.
type fakeView struct {
	budget, floor, hyst cmp.Watts
	ctls                []*fakeMemberCtl
	metrics             []time.Duration
	targets             []time.Duration
	weights             []float64
	pinned              []bool
	held                cmp.Watts // watts granted outside the member set
}

func (f *fakeView) Now() time.Duration         { return 0 }
func (f *fakeView) PowerModel() cmp.PowerModel { return cmp.DefaultModel() }
func (f *fakeView) Budget() cmp.Watts          { return f.budget }
func (f *fakeView) Draw() cmp.Watts {
	sum := f.held
	for _, c := range f.ctls {
		sum += c.Budget()
	}
	return sum
}
func (f *fakeView) Headroom() cmp.Watts              { return f.budget - f.Draw() }
func (f *fakeView) FreeCores() int                   { return 0 }
func (f *fakeView) Stages() []core.StageControl      { return nil }
func (f *fakeView) Quarantined() []core.StageControl { return nil }
func (f *fakeView) Floor() cmp.Watts                 { return f.floor }
func (f *fakeView) Hysteresis() cmp.Watts            { return f.hyst }
func (f *fakeView) Members() []Member {
	out := make([]Member, len(f.ctls))
	for i, c := range f.ctls {
		m := Member{Control: c, Granted: c.Budget(), Metric: f.metrics[i]}
		if f.targets != nil {
			m.Target = f.targets[i]
		}
		if f.weights != nil {
			m.Weight = f.weights[i]
		}
		if f.pinned != nil {
			m.Pinned = f.pinned[i]
		}
		out[i] = m
	}
	return out
}

func newFakeView(budget, floor, hyst cmp.Watts, grants []cmp.Watts, metrics []time.Duration) *fakeView {
	f := &fakeView{budget: budget, floor: floor, hyst: hyst, metrics: metrics}
	for i, g := range grants {
		f.ctls = append(f.ctls, &fakeMemberCtl{name: fmt.Sprintf("m%d", i), granted: g})
	}
	return f
}

func near(a, b cmp.Watts) bool { return math.Abs(float64(a-b)) < 1e-6 }

// TestProportionalMatchesFleetWeighting pins the bit-compat contract: with
// no QoS targets the proportional strategy weights by the raw metric, so the
// arbiter reproduces the historical fleet split exactly.
func TestProportionalMatchesFleetWeighting(t *testing.T) {
	fv := newFakeView(60, 10, 0.1,
		[]cmp.Watts{0, 0, 0},
		[]time.Duration{time.Second, 2 * time.Second, 3 * time.Second})
	New(Proportional{}).Adjust(fv, nil)
	want := []cmp.Watts{15, 20, 25} // 10 + 30×(1|2|3)/6
	for i, c := range fv.ctls {
		if !near(c.Budget(), want[i]) {
			t.Errorf("member %d granted %v, want %v", i, c.Budget(), want[i])
		}
	}
	if !near(fv.Draw(), 60) {
		t.Errorf("pool not fully allocated: draw %v of 60", fv.Draw())
	}
}

// TestProportionalWeighsSlowdownAgainstTargets: with QoS targets the weight
// is metric/target, so an app far over its own target out-attracts one that
// is absolutely slower but inside its target.
func TestProportionalWeighsSlowdownAgainstTargets(t *testing.T) {
	fv := newFakeView(60, 10, 0.1,
		[]cmp.Watts{0, 0},
		// Member 0: 100ms achieved vs 50ms target — slowdown 2.
		// Member 1: 900ms achieved vs 1800ms target — slowdown 0.5, though
		// absolutely 9× slower.
		[]time.Duration{100 * time.Millisecond, 900 * time.Millisecond})
	fv.targets = []time.Duration{50 * time.Millisecond, 1800 * time.Millisecond}
	New(Proportional{}).Adjust(fv, nil)
	// Extra 40W split 2 : 0.5 → 32 : 8; floors of 10 on top.
	if !near(fv.ctls[0].Budget(), 42) || !near(fv.ctls[1].Budget(), 18) {
		t.Fatalf("grants %v, %v; want 42, 18", fv.ctls[0].Budget(), fv.ctls[1].Budget())
	}
}

// TestFairnessEntitlementSplit: at Alpha<0 (pure entitlement) the extra
// watts divide by Member.Weight regardless of metrics.
func TestFairnessEntitlementSplit(t *testing.T) {
	fv := newFakeView(70, 10, 0.1,
		[]cmp.Watts{0, 0},
		[]time.Duration{5 * time.Second, time.Second})
	fv.weights = []float64{1, 4}
	New(Fairness{Alpha: -1}).Adjust(fv, nil)
	// Extra 50W split 1:4 → 10:40; floors of 10 on top.
	if !near(fv.ctls[0].Budget(), 20) || !near(fv.ctls[1].Budget(), 50) {
		t.Fatalf("grants %v, %v; want 20, 50", fv.ctls[0].Budget(), fv.ctls[1].Budget())
	}
}

// TestFairnessLeansTowardSlowdown: with the default Alpha the divider
// multiplies entitlement by slowdown, so equal entitlements tilt toward the
// member over its target.
func TestFairnessLeansTowardSlowdown(t *testing.T) {
	fv := newFakeView(60, 10, 0.1,
		[]cmp.Watts{0, 0},
		[]time.Duration{200 * time.Millisecond, 100 * time.Millisecond})
	fv.targets = []time.Duration{100 * time.Millisecond, 100 * time.Millisecond}
	New(Fairness{}).Adjust(fv, nil)
	// Slowdowns 2 and 1, equal entitlement → extra 40W splits 2:1.
	want0 := cmp.Watts(10 + 40*2.0/3.0)
	want1 := cmp.Watts(10 + 40*1.0/3.0)
	if !near(fv.ctls[0].Budget(), want0) || !near(fv.ctls[1].Budget(), want1) {
		t.Fatalf("grants %v, %v; want %v, %v", fv.ctls[0].Budget(), fv.ctls[1].Budget(), want0, want1)
	}
}

// TestMarginalWeighsProtrusion: members with a per-stage breakdown are
// weighted by how far the bottleneck protrudes over the rest of the
// pipeline, not by absolute slowness.
func TestMarginalWeighsProtrusion(t *testing.T) {
	fv := newFakeView(60, 10, 0.1,
		[]cmp.Watts{0, 0},
		[]time.Duration{time.Second, time.Second})
	// Member 0: balanced pipeline (all stages 1s) — protrusion 0.
	// Member 1: one protruding bottleneck (1s over 200ms mean) — 800ms.
	withBreakdown := func(v *fakeView) []Member {
		ms := v.Members()
		ms[0].Breakdown = []StageMetric{
			{Stage: "a", Metric: time.Second}, {Stage: "b", Metric: time.Second},
		}
		ms[1].Breakdown = []StageMetric{
			{Stage: "a", Metric: 200 * time.Millisecond}, {Stage: "b", Metric: time.Second},
		}
		return ms
	}
	w := Marginal{}.Weights(withBreakdown(fv))
	if w[0] != 0 {
		t.Errorf("balanced pipeline weight = %v, want 0", w[0])
	}
	if want := float64(800 * time.Millisecond); w[1] != want {
		t.Errorf("protruding pipeline weight = %v, want %v", w[1], want)
	}
	// Without a breakdown the strategy falls back to the scalar metric.
	w = Marginal{}.Weights(fv.Members())
	if w[0] != float64(time.Second) || w[1] != float64(time.Second) {
		t.Errorf("scalar fallback weights = %v", w)
	}
}

// TestPlannerIgnoresForeignSystems: a system that is not a View yields an
// empty plan, not a panic.
func TestPlannerIgnoresForeignSystems(t *testing.T) {
	fv := newFakeView(60, 10, 0.1, []cmp.Watts{0}, []time.Duration{time.Second})
	plan, out := New(nil).Plan(struct{ core.System }{fv}, nil)
	if !plan.Empty() || out.Kind != core.BoostNone {
		t.Fatalf("foreign system produced a plan:\n%s", plan.Describe())
	}
}

// recordTap keeps every decision frame.
type recordTap struct{ recs []core.DecisionRecord }

func (t *recordTap) RecordDecision(rec core.DecisionRecord) { t.recs = append(t.recs, rec) }

// TestTickWithTapAndNoAggregator: a recorded tick without an aggregator has
// no statistics — a topology-only capture, and a plan that reads none — for
// the arbiter and the static baseline alike, instead of a nil dereference.
func TestTickWithTapAndNoAggregator(t *testing.T) {
	for _, p := range []core.Planner{New(Proportional{}), core.Static{}} {
		fv := newFakeView(60, 10, 0.1, []cmp.Watts{0, 0}, []time.Duration{time.Second, 2 * time.Second})
		tap := &recordTap{}
		r := &core.Recorded{}
		r.SetTap(tap)
		_, res := core.Tick(p, r, fv, nil)
		if res.Err != nil {
			t.Errorf("%s: %v", p.Name(), res.Err)
		}
		if len(tap.recs) != 1 || tap.recs[0].Snapshot == nil {
			t.Fatalf("%s: %d frames recorded, want one with a capture", p.Name(), len(tap.recs))
		}
		if snap := tap.recs[0].Snapshot; snap.Window.OK || snap.Budget != 60 {
			t.Errorf("%s: capture %+v, want topology only", p.Name(), snap)
		}
	}
}

// TestPlannerRollsBackOnMemberFailure: a member refusing its grant mid-plan
// (hung app loop, dead node) fails the executor apply; earlier grants are
// restored so the split never straddles two allocations, and Σ grants stays
// under the budget.
func TestPlannerRollsBackOnMemberFailure(t *testing.T) {
	fv := newFakeView(60, 10, 0.1,
		[]cmp.Watts{40, 20},
		[]time.Duration{time.Second, 5 * time.Second})
	fv.ctls[1].failSet = true // the member due an increase hangs
	out := New(Proportional{}).Adjust(fv, nil)
	if out.Kind != core.BoostNone {
		t.Fatalf("outcome %v, want none", out.Kind)
	}
	if got := fv.ctls[0].Budget(); !near(got, 40) {
		t.Errorf("member 0 granted %v after rollback, want its original 40", got)
	}
	if len(fv.ctls[0].sets) != 2 {
		t.Errorf("member 0 saw %d grants, want apply+rollback", len(fv.ctls[0].sets))
	}
	if fv.Draw() > 60+1e-9 {
		t.Errorf("draw %v over budget after rollback", fv.Draw())
	}
}

// TestPlannerConservationChaos is the property test behind the tentpole
// invariant: across randomized metrics, targets, pins, holds and injected
// grant failures, Σ member grants ≤ budget after every arbiter epoch, for
// every strategy. Runs under -race in CI (concurrent budget readers during
// the epochs).
func TestPlannerConservationChaos(t *testing.T) {
	strategies := []Strategy{Proportional{}, Fairness{}, Fairness{Alpha: 2}, Marginal{}}
	for _, s := range strategies {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			const budget = 100
			fv := newFakeView(budget, 5, 1,
				[]cmp.Watts{0, 0, 0, 0},
				make([]time.Duration, 4))
			fv.targets = make([]time.Duration, 4)
			fv.weights = make([]float64, 4)
			fv.pinned = make([]bool, 4)
			p := New(s)

			// Concurrent readers racing the epochs (the telemetry gauges).
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var sum cmp.Watts
					for _, c := range fv.ctls {
						sum += c.Budget()
					}
					_ = sum
				}
			}()

			for epoch := 0; epoch < 300; epoch++ {
				for i := range fv.ctls {
					fv.metrics[i] = time.Duration(rng.Int63n(int64(2 * time.Second)))
					if rng.Intn(2) == 0 {
						fv.targets[i] = time.Duration(1 + rng.Int63n(int64(time.Second))) // with QoS
					} else {
						fv.targets[i] = 0
					}
					fv.weights[i] = rng.Float64() * 3
					fv.pinned[i] = rng.Intn(8) == 0
					fv.ctls[i].mu.Lock()
					fv.ctls[i].failSet = rng.Intn(10) == 0
					fv.ctls[i].mu.Unlock()
				}
				fv.held = cmp.Watts(rng.Intn(30)) // watts outside the member set
				before := map[string]cmp.Watts{}
				for _, c := range fv.ctls {
					before[c.name] = c.Budget()
				}
				p.Adjust(fv, nil)
				// Either the epoch committed — then the member grants fit the
				// pool left after the held watts — or a grant failure rolled
				// the whole plan back to the prior split, bit for bit.
				changed := false
				var sum cmp.Watts
				for _, c := range fv.ctls {
					g := c.Budget()
					sum += g
					if g != before[c.name] {
						changed = true
					}
				}
				if changed && sum > budget-fv.held+1e-6 {
					t.Fatalf("epoch %d (%s): grants %v over the %v pool", epoch, s.Name(), sum, budget-fv.held)
				}
				if !changed {
					for _, c := range fv.ctls {
						if !near(c.Budget(), before[c.name]) {
							t.Fatalf("epoch %d: rollback left member %s at %v, was %v", epoch, c.name, c.Budget(), before[c.name])
						}
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
