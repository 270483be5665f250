package replay_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/replay"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/workload"
)

// denseScenario is the control tick's deployment: Sirius 3,2,6 on the
// 16-core chip under its own configuration's budget, high load, PowerChief
// deciding every simulated second with the recorder attached.
func denseScenario(seed int64, ticks int) harness.Scenario {
	return harness.Scenario{
		Name:      "dense",
		App:       app.Sirius(),
		Instances: []int{3, 2, 6},
		Level:     cmp.MidLevel,
		Cores:     16,
		Policy:    func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) },
		Source: func(capacity float64) workload.Source {
			return workload.Constant(workload.RateForUtilization(capacity, workload.High.Utilization()))
		},
		Duration:       time.Duration(ticks) * time.Second,
		AdjustInterval: time.Second,
		Seed:           seed,
	}
}

// freshPlan plans with a copy of p — a copied planner starts on a fresh
// view, as NewPlanView would build it — and copies the planner's state
// back, so the twin evolves its hold bands and cooldowns like the original.
func freshPlan(p core.Planner, sv *core.SnapshotView) (*core.ActionPlan, core.BoostOutcome) {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer {
		return p.Plan(sv, sv)
	}
	c := reflect.New(v.Elem().Type())
	c.Elem().Set(v.Elem())
	plan, out := c.Interface().(core.Planner).Plan(sv, sv)
	v.Elem().Set(c.Elem())
	return plan, out
}

// TestReusedViewsPlanLikeFreshOnes: over a 300-frame recorded trace, twin
// copies of each of the nine registered policies — one planning on the view
// it keeps and resets every tick, one on a fresh view each tick — emit the
// same encoded plan and outcome at every frame, and the recording policy
// still reproduces its own trace.
func TestReusedViewsPlanLikeFreshOnes(t *testing.T) {
	res, err := harness.Run(denseScenario(7, 300))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Decisions.Trace()
	if len(tr.Frames) < 300 {
		t.Fatalf("recorded %d frames, want 300", len(tr.Frames))
	}
	score, err := replay.Determinism(tr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !score.Deterministic {
		t.Fatalf("determinism gate: %d/%d plans reproduced", score.PlanMatches, score.Frames)
	}
	for _, name := range replay.PolicyNames() {
		reused, err := replay.NewPolicy(name, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := replay.NewPolicy(name, 2*time.Second)
		acted := 0
		for i := range tr.Frames {
			snap := tr.Frames[i].Snapshot
			svR, svF := core.NewSnapshotView(snap), core.NewSnapshotView(snap)
			planR, outR := reused.Plan(svR, svR)
			gotR, _ := json.Marshal(core.EncodePlan(planR))
			planF, outF := freshPlan(fresh, svF)
			gotF, _ := json.Marshal(core.EncodePlan(planF))
			if string(gotR) != string(gotF) || outR != outF {
				t.Fatalf("%s frame %d: reused view planned %s %+v, fresh view %s %+v", name, i, gotR, outR, gotF, outF)
			}
			if len(planR.Actions) > 0 {
				acted++
			}
		}
		if acted == 0 && name != "baseline" {
			t.Errorf("%s planned nothing over %d frames: the comparison proved nothing", name, len(tr.Frames))
		}
	}
}

// BenchmarkPlan measures one Plan of each registered policy on the control
// tick's deployment — Sirius 3,2,6 on 16 cores at high load, one-second
// windows, warmed for 60 simulated seconds — against the live DES view and
// aggregator, with one simulated second of load between plans (untimed).
// Plans are not applied, so each policy decides from the same configuration.
func BenchmarkPlan(b *testing.B) {
	for _, name := range replay.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			eng, view, agg := tickDeployment(b)
			p, err := replay.NewPolicy(name, 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng.RunUntil(eng.Now() + time.Second)
				b.StartTimer()
				p.Plan(view, agg)
			}
		})
	}
}

// tickDeployment builds BenchmarkPlan's deployment.
func tickDeployment(tb testing.TB) (*sim.Engine, core.System, *core.Aggregator) {
	tb.Helper()
	a, instances := app.Sirius(), []int{3, 2, 6}
	specs, err := a.Specs(instances, cmp.MidLevel)
	if err != nil {
		tb.Fatal(err)
	}
	model := cmp.DefaultModel()
	var budget cmp.Watts
	for _, spec := range specs {
		budget += cmp.Watts(spec.Instances) * model.Power(spec.Level)
	}
	eng := sim.NewEngine()
	sys, err := stage.NewSystem(eng, cmp.NewChip(16, model, budget), specs)
	if err != nil {
		tb.Fatal(err)
	}
	agg := core.NewAggregator(time.Second, eng.Now)
	sys.OnComplete(agg.Ingest)
	rate := workload.RateForUtilization(a.CapacityQPS(instances, cmp.MidLevel), workload.High.Utilization())
	workload.NewGenerator(eng, sys, workload.Constant(rate), func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, instances)
	}, rand.New(rand.NewSource(7)), 1<<50).Start()
	eng.RunUntil(60 * time.Second)
	return eng, core.NewDESView(sys), agg
}
