package replay_test

import (
	"testing"
	"time"

	"powerchief/internal/config"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/replay"
)

// TestEveryRegisteredPolicyRunsClosedLoop pins the table: every registered
// name builds a policy that reports that name, and drives the paper's
// Table 2 Sirius run at high load through harness.Run to completion within
// the budget.
func TestEveryRegisteredPolicyRunsClosedLoop(t *testing.T) {
	for _, name := range replay.PolicyNames() {
		p, err := replay.NewPolicy(name, 2*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
		e := config.MitigationSetup("sirius", name, "high", 7)
		e.QoS = config.Duration(2 * time.Second)
		sc, err := harness.FromConfig(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := harness.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Policy != name || res.Completed != res.Submitted || res.AvgPower > sc.Budget {
			t.Errorf("%s: policy %q completed %d/%d, avg power %.3f W of %.2f W",
				name, res.Policy, res.Completed, res.Submitted, res.AvgPower, sc.Budget)
		}
	}
}

// TestRecordedTracesReplayTheirOwnPolicy: a harness run under any
// registered policy that records its decisions (core.TapSetter) stamps its
// own name on the trace, and replaying that trace reproduces every recorded
// plan. The QoS-saving policies target a 2 s QoS.
func TestRecordedTracesReplayTheirOwnPolicy(t *testing.T) {
	for _, name := range replay.PolicyNames() {
		p, err := replay.NewPolicy(name, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(core.TapSetter); !ok {
			continue
		}
		e := config.MitigationSetup("sirius", name, "high", 7)
		e.QoS = config.Duration(2 * time.Second)
		sc, err := harness.FromConfig(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := harness.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := res.Decisions.Trace()
		if tr.Header.Policy != name {
			t.Errorf("%s: trace header names %q", name, tr.Header.Policy)
		}
		score, err := replay.Determinism(tr, e.QoS.Std())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !score.Deterministic || score.Frames == 0 {
			t.Errorf("%s: replay matched %d/%d recorded plans", name, score.PlanMatches, score.Frames)
		}
	}
}
