package powerchief

import (
	"strings"
	"testing"
	"time"

	"powerchief/internal/replay"
)

func TestFacadeQuickScenario(t *testing.T) {
	res, err := Run(Scenario{
		Name:     "facade-smoke",
		App:      Sirius(),
		Level:    MidLevel,
		Budget:   13.56,
		Policy:   PowerChiefPolicy(),
		Source:   ConstantLoad(MediumLoad),
		Duration: 200 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no queries completed")
	}
	var sb strings.Builder
	if err := WriteResult(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "powerchief") {
		t.Errorf("summary line = %q", sb.String())
	}
}

func TestFacadeAppsAndPolicies(t *testing.T) {
	for _, name := range []string{"sirius", "nlp", "websearch"} {
		if _, err := AppByName(name); err != nil {
			t.Errorf("AppByName(%q): %v", name, err)
		}
	}
	for _, name := range replay.PolicyNames() {
		mk, err := PolicyByName(name, time.Second)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
			continue
		}
		if got := mk().Name(); got != name {
			t.Errorf("policy %q reports name %q", name, got)
		}
	}
	if _, err := PolicyByName("nope", time.Second); err == nil {
		t.Error("unknown policy resolved")
	}
	for _, name := range []string{"pegasus", "saver"} {
		if _, err := PolicyByName(name, 0); err == nil {
			t.Errorf("%s resolved without a QoS target", name)
		}
	}
}

func TestFacadeLevels(t *testing.T) {
	if MinLevel.GHz() != 1.2 || MidLevel.GHz() != 1.8 || MaxLevel.GHz() != 2.4 {
		t.Error("frequency ladder constants wrong")
	}
	if !(LowLoad.Utilization() < MediumLoad.Utilization() && MediumLoad.Utilization() < HighLoad.Utilization()) {
		t.Error("load levels not ordered")
	}
}

func TestFacadeImprovement(t *testing.T) {
	base, err := Run(Scenario{
		Name: "b", App: NLP(), Level: MidLevel, Budget: 13.56,
		Source: ConstantLoad(HighLoad), Duration: 300 * time.Second, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := Run(Scenario{
		Name: "p", App: NLP(), Level: MidLevel, Budget: 13.56,
		Policy: PowerChiefPolicy(),
		Source: ConstantLoad(HighLoad), Duration: 300 * time.Second, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	avg, p99 := Improvement(base, boosted)
	if avg < 1 || p99 < 1 {
		t.Errorf("improvement = %.2f/%.2f, want ≥ 1 under high load", avg, p99)
	}
}
