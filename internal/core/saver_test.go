package core

import (
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
)

// instSample is one instance's injected windowed statistics.
type instSample struct {
	queuing, serving time.Duration
}

// ingestQoS injects exactly one completed query carrying the given
// per-instance records and end-to-end latency, so the QoS policies see both
// the ranking signal and the latency-vs-target signal without dilution.
func ingestQoS(agg *Aggregator, samples map[string]instSample, latency time.Duration) {
	q := query.New(0, 0, nil)
	for name, s := range samples {
		q.Append(query.Record{
			Instance:   name,
			QueueEnter: 0,
			ServeStart: s.queuing,
			ServeEnd:   s.queuing + s.serving,
		})
	}
	q.Done = latency
	agg.Ingest(q)
}

func TestPegasusStepsDownUnderSlack(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MaxLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{"A_1": {0, 100 * time.Millisecond}, "B_1": {0, 100 * time.Millisecond}}, 100*time.Millisecond)
	p := NewPegasus(time.Second)
	p.Adjust(sys, agg)
	for _, name := range []string{"A_1", "B_1"} {
		if got := sys.inst(name).level; got != cmp.MaxLevel-1 {
			t.Errorf("%s level = %v, want one step down", name, got)
		}
	}
}

func TestPegasusUniformityIsStageAgnostic(t *testing.T) {
	// Pegasus lowers every instance together — even if one stage has far
	// less slack. This is exactly the limitation §8.4 exploits.
	sys := newFakeSystem(200, 8, cmp.MaxLevel, "fast", "slow")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{
		"fast_1": {0, 10 * time.Millisecond},
		"slow_1": {0, 490 * time.Millisecond},
	}, 500*time.Millisecond)
	p := NewPegasus(time.Second)
	p.Adjust(sys, agg)
	if sys.inst("fast_1").level != sys.inst("slow_1").level {
		t.Error("Pegasus treated instances differently")
	}
}

func TestPegasusRacesToMaxOnViolation(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MidLevel, "A")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{"A_1": {0, time.Second}}, 2*time.Second)
	p := NewPegasus(time.Second)
	p.Adjust(sys, agg)
	if sys.inst("A_1").level != cmp.MaxLevel {
		t.Errorf("level = %v, want max on violation", sys.inst("A_1").level)
	}
}

func TestPegasusStepsUpNearTarget(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MidLevel, "A")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{"A_1": {0, 900 * time.Millisecond}}, 920*time.Millisecond)
	NewPegasus(time.Second).Adjust(sys, agg)
	if got := sys.inst("A_1").level; got != cmp.MidLevel+1 {
		t.Errorf("level = %v, want one step up", got)
	}
}

func TestPegasusHoldBand(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MidLevel, "A")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{"A_1": {0, 800 * time.Millisecond}}, 870*time.Millisecond)
	NewPegasus(time.Second).Adjust(sys, agg)
	if got := sys.inst("A_1").level; got != cmp.MidLevel {
		t.Errorf("level = %v, want unchanged in the hold band", got)
	}
}

func TestPegasusNoDataNoAction(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MidLevel, "A")
	agg := aggWith(sys, 25*time.Second)
	if out := NewPegasus(time.Second).Adjust(sys, agg); out.Kind != BoostNone {
		t.Error("acted without latency data")
	}
}

func TestSaverDeboostsOnlyFastestInstance(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MaxLevel, "fast", "slow")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{
		"fast_1": {0, 50 * time.Millisecond},
		"slow_1": {100 * time.Millisecond, 600 * time.Millisecond},
	}, 300*time.Millisecond) // 30% of target: comfortable slack
	s := NewPowerChiefSaver(time.Second, DefaultConfig())
	out := s.Adjust(sys, agg)
	if out.Kind != BoostFrequency {
		t.Fatalf("kind = %v", out.Kind)
	}
	if got := sys.inst("fast_1").level; got != cmp.MaxLevel-1 {
		t.Errorf("fastest level = %v, want one step down", got)
	}
	if got := sys.inst("slow_1").level; got != cmp.MaxLevel {
		t.Errorf("bottleneck level = %v, must be untouched", got)
	}
}

func TestSaverWithdrawsWhenSurvivorsStaySafe(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MaxLevel, "A")
	st := sys.stage("A")
	st.ins = append(st.ins, &fakeInstance{name: "A_2", stage: "A", level: cmp.MaxLevel, util: 0.1, sys: sys})
	sys.draw += sys.model.Power(cmp.MaxLevel)
	st.ins[0].util = 0.3 // projected survivor utilization 0.4 < 0.5 cap
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{
		"A_1": {0, 200 * time.Millisecond},
		"A_2": {0, 100 * time.Millisecond},
	}, 200*time.Millisecond)
	drawBefore := sys.Draw()
	s := NewPowerChiefSaver(time.Second, DefaultConfig())
	s.Adjust(sys, agg)
	if s.Withdrawn != 1 {
		t.Fatalf("Withdrawn = %d, want 1", s.Withdrawn)
	}
	if len(st.ins) != 1 {
		t.Error("instance not removed")
	}
	// The fastest instance by metric (A_2) was the victim.
	if st.ins[0].name != "A_1" {
		t.Errorf("survivor = %s, want A_1", st.ins[0].name)
	}
	if sys.Draw() >= drawBefore {
		t.Error("withdraw did not save power")
	}
}

func TestSaverRefusesUnsafeWithdraw(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.MaxLevel, "A")
	st := sys.stage("A")
	st.ins = append(st.ins, &fakeInstance{name: "A_2", stage: "A", level: cmp.MaxLevel, util: 0.45, sys: sys})
	sys.draw += sys.model.Power(cmp.MaxLevel)
	st.ins[0].util = 0.4 // projected survivor utilization 0.85 ≥ 0.5 cap
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{
		"A_1": {0, 200 * time.Millisecond},
		"A_2": {0, 100 * time.Millisecond},
	}, 200*time.Millisecond)
	s := NewPowerChiefSaver(time.Second, DefaultConfig())
	s.Adjust(sys, agg)
	if s.Withdrawn != 0 {
		t.Fatalf("unsafe withdraw happened")
	}
	if len(st.ins) != 2 {
		t.Error("instance removed")
	}
}

func TestSaverRestoresBottleneckOnViolation(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.Level(2), "fast", "slow")
	agg := aggWith(sys, 25*time.Second)
	sys.inst("slow_1").queueLen = 3
	ingestQoS(agg, map[string]instSample{
		"fast_1": {0, 50 * time.Millisecond},
		"slow_1": {200 * time.Millisecond, 600 * time.Millisecond},
	}, 1500*time.Millisecond) // violation
	s := NewPowerChiefSaver(time.Second, DefaultConfig())
	out := s.Adjust(sys, agg)
	if out.Kind != BoostFrequency {
		t.Fatalf("kind = %v, want freq-boost recovery", out.Kind)
	}
	if got := sys.inst("slow_1").level; got <= cmp.Level(2) {
		t.Errorf("bottleneck level = %v, not restored", got)
	}
}

func TestSaverNearTargetGivesBottleneckOneStep(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.Level(5), "fast", "slow")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{
		"fast_1": {0, 50 * time.Millisecond},
		"slow_1": {100 * time.Millisecond, 600 * time.Millisecond},
	}, 930*time.Millisecond) // 93% of target
	s := NewPowerChiefSaver(time.Second, DefaultConfig())
	s.Adjust(sys, agg)
	if got := sys.inst("slow_1").level; got != cmp.Level(6) {
		t.Errorf("bottleneck level = %v, want one step up", got)
	}
	if got := sys.inst("fast_1").level; got != cmp.Level(5) {
		t.Errorf("fastest level = %v, must hold", got)
	}
}

func TestSaverHoldBand(t *testing.T) {
	sys := newFakeSystem(200, 8, cmp.Level(5), "A")
	agg := aggWith(sys, 25*time.Second)
	ingestQoS(agg, map[string]instSample{"A_1": {0, 800 * time.Millisecond}}, 870*time.Millisecond)
	s := NewPowerChiefSaver(time.Second, DefaultConfig())
	if out := s.Adjust(sys, agg); out.Kind != BoostNone {
		t.Errorf("acted inside the hold band: %v", out.Kind)
	}
}

func TestSaverValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero QoS accepted")
		}
	}()
	NewPowerChiefSaver(0, Config{})
}

func TestPegasusValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero QoS accepted")
		}
	}()
	NewPegasus(0)
}
