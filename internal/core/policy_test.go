package core

import (
	"testing"
	"time"

	"powerchief/internal/cmp"
)

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BalanceThreshold != time.Second {
		t.Error("balance threshold != 1s")
	}
	if cfg.WithdrawInterval != 150*time.Second {
		t.Error("withdraw interval != 150s")
	}
	if cfg.WithdrawThreshold != 0.2 {
		t.Error("withdraw threshold != 20%")
	}
	if cfg.Metric != MetricExpectedDelay {
		t.Error("metric != expected-delay")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BalanceThreshold: -1},
		{WithdrawInterval: -1},
		{WithdrawThreshold: -0.1},
		{WithdrawThreshold: 1.5},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestStaticPolicyNeverActs(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", time.Second, time.Second)
	sys.inst("A_1").queueLen = 50
	out := Static{}.Adjust(sys, agg)
	if out.Kind != BoostNone {
		t.Error("baseline acted")
	}
	if sys.inst("A_1").level != cmp.MidLevel || sys.inst("B_1").level != cmp.MidLevel {
		t.Error("baseline changed frequencies")
	}
	if (Static{}).Name() != "baseline" {
		t.Error("name")
	}
}

func TestBalanceThresholdSuppressesAction(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	// Tiny spread: 10ms < 1s threshold.
	ingestStats(agg, "A_1", 0, 110*time.Millisecond)
	ingestStats(agg, "B_1", 0, 100*time.Millisecond)
	cfg := DefaultConfig()
	for _, p := range []Policy{NewFreqBoost(cfg), NewInstBoost(cfg), NewPowerChief(cfg)} {
		if out := p.Adjust(sys, agg); out.Kind != BoostNone {
			t.Errorf("%s acted below the balance threshold", p.Name())
		}
	}
}

func TestFreqBoostPolicyRaisesBottleneck(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
	ingestStats(agg, "B_1", 0, 100*time.Millisecond)
	sys.inst("A_1").queueLen = 4
	p := NewFreqBoost(DefaultConfig())
	out := p.Adjust(sys, agg)
	if out.Kind != BoostFrequency {
		t.Fatalf("kind = %v", out.Kind)
	}
	if sys.inst("A_1").level != cmp.MaxLevel {
		t.Errorf("bottleneck level = %v, want max (ample headroom)", sys.inst("A_1").level)
	}
}

func TestInstBoostPolicyClonesBottleneck(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
	ingestStats(agg, "B_1", 0, 100*time.Millisecond)
	sys.inst("A_1").queueLen = 10
	p := NewInstBoost(DefaultConfig())
	out := p.Adjust(sys, agg)
	if out.Kind != BoostInstance {
		t.Fatalf("kind = %v", out.Kind)
	}
	if len(sys.stage("A").ins) != 2 {
		t.Error("no clone")
	}
}

func TestPowerChiefAdaptsTechniqueToQueueDepth(t *testing.T) {
	cfg := DefaultConfig()

	// Deep queue: instance boosting.
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
	ingestStats(agg, "B_1", 0, 100*time.Millisecond)
	sys.inst("A_1").queueLen = 30
	pc := NewPowerChief(cfg)
	if out := pc.Adjust(sys, agg); out.Kind != BoostInstance {
		t.Errorf("deep queue decision = %v, want inst-boost", out.Kind)
	}

	// Shallow queue: frequency boosting.
	sys2 := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg2 := aggWith(sys2, 25*time.Second)
	ingestStats(agg2, "A_1", 0, 3*time.Second)
	ingestStats(agg2, "B_1", 0, 100*time.Millisecond)
	sys2.inst("A_1").queueLen = 1
	pc2 := NewPowerChief(cfg)
	if out := pc2.Adjust(sys2, agg2); out.Kind != BoostFrequency {
		t.Errorf("shallow queue decision = %v, want freq-boost", out.Kind)
	}
}

func TestPowerChiefWithdrawsAtInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BalanceThreshold = time.Hour // isolate the withdraw path
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A")
	st := sys.stage("A")
	st.ins = append(st.ins, &fakeInstance{name: "A_2", stage: "A", level: cmp.MidLevel, util: 0.05, sys: sys})
	sys.draw += sys.model.Power(cmp.MidLevel)
	st.ins[0].util = 0.9
	agg := aggWith(sys, 25*time.Second)
	pc := NewPowerChief(cfg)

	// First adjust anchors the withdraw epoch; nothing happens yet.
	sys.now = 25 * time.Second
	pc.Adjust(sys, agg)
	if pc.Withdrawn != 0 {
		t.Fatal("withdraw before the interval elapsed")
	}
	// Interval not yet elapsed.
	sys.now = 100 * time.Second
	pc.Adjust(sys, agg)
	if pc.Withdrawn != 0 {
		t.Fatal("withdraw before the interval elapsed")
	}
	// 150s after the anchor: the underutilized A_2 goes.
	sys.now = 175 * time.Second
	pc.Adjust(sys, agg)
	if pc.Withdrawn != 1 {
		t.Fatalf("Withdrawn = %d, want 1", pc.Withdrawn)
	}
	if len(st.ins) != 1 {
		t.Error("instance not removed")
	}
	// Epochs were reset for survivors.
	if st.ins[0].epochResets == 0 {
		t.Error("utilization epochs not reset after withdraw pass")
	}
}

func TestPowerChiefWithdrawDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WithdrawInterval = 0
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A")
	st := sys.stage("A")
	st.ins = append(st.ins, &fakeInstance{name: "A_2", stage: "A", level: cmp.MidLevel, util: 0.0, sys: sys})
	agg := aggWith(sys, 25*time.Second)
	pc := NewPowerChief(cfg)
	for now := time.Duration(0); now < 1000*time.Second; now += 25 * time.Second {
		sys.now = now
		pc.Adjust(sys, agg)
	}
	if pc.Withdrawn != 0 {
		t.Error("withdraw happened despite being disabled")
	}
}

func TestPolicyNames(t *testing.T) {
	cfg := DefaultConfig()
	for p, want := range map[Policy]string{
		NewFreqBoost(cfg):               "freq-boost",
		NewInstBoost(cfg):               "inst-boost",
		NewPowerChief(cfg):              "powerchief",
		NewPegasus(time.Second):         "pegasus",
		NewPowerChiefSaver(1, Config{}): "saver",
	} {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestPoliciesOnEmptySystem(t *testing.T) {
	sys := &fakeSystem{model: cmp.DefaultModel(), budget: 10}
	agg := aggWith(sys, time.Second)
	cfg := DefaultConfig()
	for _, p := range []Policy{NewFreqBoost(cfg), NewInstBoost(cfg), NewPowerChief(cfg), NewPegasus(time.Second), NewPowerChiefSaver(time.Second, cfg)} {
		if out := p.Adjust(sys, agg); out.Kind != BoostNone {
			t.Errorf("%s acted on an empty system", p.Name())
		}
	}
}
