// Package replay_test exercises the arena end to end: a real harness run
// records a decision trace (harness imports replay, so these tests live in
// the external package), and the replay engine re-runs policies against it.
package replay_test

import (
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/replay"
	"powerchief/internal/workload"
)

// recordedScenario is a short overloaded Sirius run under PowerChief — busy
// enough that the policy actually boosts, so the trace carries non-trivial
// plans for the determinism gate to reproduce.
func recordedScenario(seed int64) harness.Scenario {
	return harness.Scenario{
		Name:   "arena-test",
		App:    app.Sirius(),
		Level:  cmp.MidLevel,
		Budget: 13.56,
		Policy: func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) },
		Source: func(capacity float64) workload.Source {
			return workload.Constant(workload.RateForUtilization(capacity, workload.High.Utilization()))
		},
		Duration:       300 * time.Second,
		AdjustInterval: 25 * time.Second,
		Seed:           seed,
	}
}

// TestHarnessRecordsAndReplaysDeterministically is the tentpole acceptance
// property end to end: a harness run records its decision path by default,
// and replaying the recording policy against the captured snapshots
// reproduces every recorded plan byte-identically.
func TestHarnessRecordsAndReplaysDeterministically(t *testing.T) {
	res, err := harness.Run(recordedScenario(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions == nil {
		t.Fatal("harness run left no decision trace (recording is on by default)")
	}
	if res.Decisions.Len() == 0 {
		t.Fatal("decision trace is empty")
	}
	tr := res.Decisions.Trace()
	if tr.Header.Scenario != "arena-test" || tr.Header.Seed != 9 || tr.Header.Policy != "powerchief" {
		t.Fatalf("trace header %+v", tr.Header)
	}
	if tr.Header.Version != replay.TraceVersion {
		t.Fatalf("trace version %d, want %d", tr.Header.Version, replay.TraceVersion)
	}

	score, err := replay.Determinism(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !score.Deterministic {
		t.Fatalf("determinism gate failed: %d/%d plans reproduced", score.PlanMatches, score.Frames)
	}
	if score.Frames != len(tr.Frames) {
		t.Fatalf("replayed %d frames of %d", score.Frames, len(tr.Frames))
	}
	if score.Boosts == 0 {
		t.Fatal("overloaded run never boosted — the gate reproduced only empty plans")
	}
}

// TestArenaScoresMultiplePolicies replays one recorded trace against three
// candidates and checks the comparison artifact's shape: every policy walks
// every frame, the recording policy passes the gate, and projections are
// populated.
func TestArenaScoresMultiplePolicies(t *testing.T) {
	res, err := harness.Run(recordedScenario(9))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Decisions.Trace()
	out, err := replay.Run(tr, []string{"powerchief", "fairness", "marginal"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Frames != len(tr.Frames) {
		t.Fatalf("comparison artifact %+v", out)
	}
	if len(out.Policies) != 3 {
		t.Fatalf("scored %d policies, want 3", len(out.Policies))
	}
	for _, s := range out.Policies {
		if s.Frames != len(tr.Frames) {
			t.Fatalf("policy %s replayed %d/%d frames", s.Policy, s.Frames, len(tr.Frames))
		}
		if s.MaxProjectedMS <= 0 {
			t.Fatalf("policy %s has no projected delay", s.Policy)
		}
	}
	if !out.Policies[0].Deterministic {
		t.Fatalf("recording policy lost the gate inside the arena: %+v", out.Policies[0])
	}

	if _, err := replay.Run(tr, []string{"no-such-policy"}, 0); err == nil {
		t.Fatal("unknown arena policy accepted")
	}
}

// TestDisableDecisionTrace pins the opt-out: the scenario flag leaves no
// recorder behind.
func TestDisableDecisionTrace(t *testing.T) {
	sc := recordedScenario(9)
	sc.Duration = 100 * time.Second
	sc.DisableDecisionTrace = true
	res, err := harness.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions != nil {
		t.Fatal("DisableDecisionTrace still recorded a trace")
	}
}
