package replay_test

import (
	"testing"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/replay"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/telemetry"
)

// TestTickAuditsDividerOutcome is the seam from outside package core: the
// Divider is one Plan function built on the exported PlanView (Rank, Decided),
// and core.Tick gives it the full trail — the identification first, the
// outcome of its decision last — with no setter and no wrapper.
func TestTickAuditsDividerOutcome(t *testing.T) {
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 13.56)
	sys, err := stage.NewSystem(eng, chip, []stage.Spec{
		{Name: "ASR", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.15), Instances: 1, Level: cmp.MidLevel},
		{Name: "QA", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.25), Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	view := core.NewDESView(sys)
	agg := core.NewAggregator(25*time.Second, eng.Now)
	sys.OnComplete(agg.Ingest)
	for i := 0; i < 12; i++ {
		at := time.Duration(i) * 300 * time.Millisecond
		qid := query.ID(i + 1)
		eng.ScheduleAt(at, func() {
			sys.Submit(query.New(qid, at, [][]time.Duration{{100 * time.Millisecond}, {800 * time.Millisecond}}))
		})
	}
	eng.RunUntil(5 * time.Second)

	log := telemetry.NewAuditLog(16)
	d := replay.NewDivider(arbiter.Proportional{}, core.DefaultConfig())
	out, res := core.Tick(d, core.Executor{Audit: log}, nil, view, agg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if out.Kind == core.BoostNone {
		t.Fatal("the divider left a QA-bound deployment alone")
	}
	events := log.Events()
	if len(events) < 2 || events[0].Kind != telemetry.EventIdentify {
		t.Fatalf("trail %v, want identify … outcome", events)
	}
	if last := events[len(events)-1].Kind; last != telemetry.EventBoostFreq && last != telemetry.EventBoostInst {
		t.Fatalf("trail ends with %s, want the divider's outcome", last)
	}
	if err := chip.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
