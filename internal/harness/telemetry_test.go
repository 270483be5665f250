package harness

import (
	"strings"
	"testing"

	"powerchief/internal/app"
	"powerchief/internal/core"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// An audited PowerChief scenario leaves a decision timeline: bottleneck
// identifications with their Equation 1 inputs and the boost decisions that
// followed, in sequence order, renderable as text.
func TestScenarioAuditProducesDecisionTimeline(t *testing.T) {
	audit := telemetry.NewAuditLog(0)
	sc := mitigationScenario(app.Sirius(), "audited", workload.High, func() core.Policy {
		return core.NewPowerChief(core.DefaultConfig())
	}, 7)
	sc.Audit = audit
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	if len(audit.Events()) == 0 {
		t.Fatal("audited run recorded no events")
	}
	kinds := map[telemetry.EventKind]int{}
	var prevSeq uint64
	for _, e := range audit.Events() {
		if e.Seq <= prevSeq {
			t.Fatalf("events out of order: seq %d after %d", e.Seq, prevSeq)
		}
		prevSeq = e.Seq
		kinds[e.Kind]++
		if e.Kind == telemetry.EventIdentify {
			if e.Instance == "" || e.Metric <= 0 {
				t.Errorf("identify event missing Equation 1 inputs: %+v", e)
			}
		}
	}
	if kinds[telemetry.EventIdentify] == 0 {
		t.Error("no bottleneck identifications in the timeline")
	}
	if kinds[telemetry.EventBoostFreq]+kinds[telemetry.EventBoostInst] == 0 {
		t.Errorf("no boost decisions in the timeline: %v", kinds)
	}
	var sb strings.Builder
	if err := telemetry.WriteDecisions(&sb, audit.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "identify") {
		t.Errorf("rendered timeline has no identify lines:\n%s", sb.String())
	}
}

// The acceptance property for query tracing on the DES engine: every sampled
// trace's per-instance queue/serve spans sum exactly to the query's
// end-to-end latency (the engine's single clock makes records contiguous).
func TestScenarioTracerSpansSumToLatency(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Sample: 10})
	sc := mitigationScenario(app.Sirius(), "traced", workload.Medium, func() core.Policy {
		return core.NewPowerChief(core.DefaultConfig())
	}, 7)
	sc.Tracer = tracer
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen, kept, dropped := tracer.Stats()
	if seen != uint64(res.Completed) {
		t.Errorf("tracer saw %d queries, run completed %d", seen, res.Completed)
	}
	if kept == 0 {
		t.Fatal("sampling kept no traces")
	}
	if want := seen / 10; kept != want {
		t.Errorf("kept %d of %d at sample 10, want %d", kept, seen, want)
	}
	_ = dropped
	for _, tr := range tracer.Traces() {
		if tr.Truncated {
			continue // spans past the depth cap are missing by design
		}
		if len(tr.Spans) == 0 {
			t.Fatalf("trace %d has no spans", tr.ID)
		}
		if got := tr.SpanTotal(); got != tr.Latency {
			t.Errorf("trace %d spans sum to %v, latency %v", tr.ID, got, tr.Latency)
		}
		for _, sp := range tr.Spans {
			if sp.Instance == "" || sp.Stage == "" {
				t.Errorf("trace %d span missing identity: %+v", tr.ID, sp)
			}
			if sp.End < sp.Start {
				t.Errorf("trace %d span ends before it starts: %+v", tr.ID, sp)
			}
		}
	}
}

// A scenario without telemetry attached behaves identically to one with a
// disabled tracer and no audit — the hooks are nil-safe no-ops.
func TestScenarioTelemetryDisabledMatchesBaseline(t *testing.T) {
	run := func(attach bool) *Result {
		sc := mitigationScenario(app.Sirius(), "base", workload.Medium, func() core.Policy {
			return core.NewPowerChief(core.DefaultConfig())
		}, 11)
		if attach {
			var tracer *telemetry.Tracer
			sc.Tracer = tracer // typed nil: disabled
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.Completed != b.Completed || a.Latency.Mean() != b.Latency.Mean() {
		t.Errorf("disabled telemetry changed the run: %d/%v vs %d/%v",
			a.Completed, a.Latency.Mean(), b.Completed, b.Latency.Mean())
	}
}
