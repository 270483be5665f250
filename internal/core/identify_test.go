package core

import (
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
)

// ingestStats injects one synthetic completed query giving instance `inst`
// the given queuing and serving sample.
func ingestStats(agg *Aggregator, inst string, queuing, serving time.Duration) {
	q := query.New(0, 0, nil)
	q.Append(query.Record{
		Instance:   inst,
		QueueEnter: 0,
		ServeStart: queuing,
		ServeEnd:   queuing + serving,
	})
	q.Done = queuing + serving
	agg.Ingest(q)
}

func TestRankUsesExpectedDelayMetric(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "ASR", "QA")
	agg := aggWith(sys, 25*time.Second)
	// ASR: short queue but slow serving; QA: long queue.
	ingestStats(agg, "ASR_1", 100*time.Millisecond, 500*time.Millisecond)
	ingestStats(agg, "QA_1", 200*time.Millisecond, 300*time.Millisecond)
	sys.inst("ASR_1").queueLen = 1 // metric = 1·100 + 500 = 600ms
	sys.inst("QA_1").queueLen = 4  // metric = 4·200 + 300 = 1100ms

	ranked := Identifier{Metric: MetricExpectedDelay}.Rank(sys, agg)
	if len(ranked) != 2 {
		t.Fatalf("ranked %d instances", len(ranked))
	}
	if ranked[0].Instance.Name() != "QA_1" {
		t.Errorf("bottleneck = %s, want QA_1", ranked[0].Instance.Name())
	}
	if ranked[0].Metric != 1100*time.Millisecond {
		t.Errorf("bottleneck metric = %v, want 1.1s", ranked[0].Metric)
	}
	if ranked[1].Metric != 600*time.Millisecond {
		t.Errorf("fastest metric = %v, want 600ms", ranked[1].Metric)
	}
	if got := Spread(ranked); got != 500*time.Millisecond {
		t.Errorf("Spread = %v, want 500ms", got)
	}
}

func TestQueueLengthFlipsBottleneck(t *testing.T) {
	// The paper's §2.2 example: historical metrics alone would pick the
	// instance with higher processing delay, but a queue burst makes the
	// other instance the real bottleneck.
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 50*time.Millisecond, 700*time.Millisecond)  // high processing delay
	ingestStats(agg, "B_1", 100*time.Millisecond, 200*time.Millisecond) // low, but...
	sys.inst("A_1").queueLen = 1
	sys.inst("B_1").queueLen = 20 // burst

	byProcessing := Identifier{Metric: MetricAvgProcessing}.Rank(sys, agg)
	if byProcessing[0].Instance.Name() != "A_1" {
		t.Errorf("avg-processing bottleneck = %s, want A_1", byProcessing[0].Instance.Name())
	}
	byExpected := Identifier{Metric: MetricExpectedDelay}.Rank(sys, agg)
	if byExpected[0].Instance.Name() != "B_1" {
		t.Errorf("expected-delay bottleneck = %s, want B_1 (queue burst)", byExpected[0].Instance.Name())
	}
}

func TestTableOneMetrics(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 300*time.Millisecond, 100*time.Millisecond)
	ingestStats(agg, "B_1", 100*time.Millisecond, 250*time.Millisecond)

	if r := (Identifier{Metric: MetricAvgQueuing}).Rank(sys, agg); r[0].Instance.Name() != "A_1" {
		t.Error("avg-queuing should rank A_1 first")
	}
	if r := (Identifier{Metric: MetricAvgServing}).Rank(sys, agg); r[0].Instance.Name() != "B_1" {
		t.Error("avg-serving should rank B_1 first")
	}
	if r := (Identifier{Metric: MetricAvgProcessing}).Rank(sys, agg); r[0].Metric != 400*time.Millisecond {
		t.Errorf("avg-processing metric = %v, want 400ms", r[0].Metric)
	}
}

func TestMetricStrings(t *testing.T) {
	names := map[Metric]string{
		MetricExpectedDelay: "expected-delay",
		MetricAvgQueuing:    "avg-queuing",
		MetricAvgServing:    "avg-serving",
		MetricAvgProcessing: "avg-processing",
		Metric(99):          "unknown-metric",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Metric(%d).String() = %q", m, m.String())
		}
	}
}

func TestBottleneckEmptySystem(t *testing.T) {
	sys := &fakeSystem{model: cmp.DefaultModel(), budget: 10}
	agg := aggWith(sys, time.Second)
	if ranked := (Identifier{}).Rank(sys, agg); len(ranked) != 0 {
		t.Errorf("empty system ranked %d instances", len(ranked))
	}
	if out := NewPowerChief(DefaultConfig()).Adjust(sys, agg); out.Kind != BoostNone {
		t.Errorf("empty system boosted: %+v", out)
	}
	if got := Spread(nil); got != 0 {
		t.Errorf("Spread(nil) = %v", got)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "B", "A")
	agg := aggWith(sys, time.Second)
	// No stats at all: every metric is zero; ties break by name.
	ranked := Identifier{}.Rank(sys, agg)
	if ranked[0].Instance.Name() != "A_1" || ranked[1].Instance.Name() != "B_1" {
		t.Errorf("tie-break order = %s,%s; want A_1,B_1",
			ranked[0].Instance.Name(), ranked[1].Instance.Name())
	}
}

func TestInstances(t *testing.T) {
	sys := newFakeSystem(100, 4, cmp.MidLevel, "X", "Y")
	all := Instances(sys)
	if len(all) != 2 || all[0].StageName() != "X" || all[1].StageName() != "Y" {
		t.Fatalf("Instances = %v, want one per stage in stage order", all)
	}
}
