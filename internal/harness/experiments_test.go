package harness

import (
	"strings"
	"testing"

	"powerchief/internal/app"
	"powerchief/internal/core"
	"powerchief/internal/workload"
)

// These tests assert the qualitative shape of each reproduced figure — who
// wins, by roughly what factor, where the crossovers fall — not absolute
// numbers. They are the executable form of EXPERIMENTS.md.

func barOf(f *Figure, group, label string) Bar {
	for _, g := range f.Groups {
		if !strings.HasPrefix(g.Label, group) {
			continue
		}
		for _, b := range g.Bars {
			if b.Label == label {
				return b
			}
		}
	}
	return Bar{}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	fig, err := Figure4(11)
	if err != nil {
		t.Fatal(err)
	}
	lowFreq := barOf(fig, "low", "Freq-Boosting")
	lowInst := barOf(fig, "low", "Inst-Boosting")
	highFreq := barOf(fig, "high", "Freq-Boosting")
	highInst := barOf(fig, "high", "Inst-Boosting")
	t.Logf("low: freq=%.2fx/%.2fx inst=%.2fx/%.2fx", lowFreq.Avg, lowFreq.P99, lowInst.Avg, lowInst.P99)
	t.Logf("high: freq=%.2fx/%.2fx inst=%.2fx/%.2fx", highFreq.Avg, highFreq.P99, highInst.Avg, highInst.P99)

	// §2.3 / Figure 4: at low load frequency boosting beats instance
	// boosting; at high load instance boosting wins by a wide margin.
	if lowFreq.Avg < lowInst.Avg {
		t.Errorf("low load: freq (%.2fx) should beat inst (%.2fx)", lowFreq.Avg, lowInst.Avg)
	}
	if highInst.Avg < highFreq.Avg {
		t.Errorf("high load: inst (%.2fx) should beat freq (%.2fx)", highInst.Avg, highFreq.Avg)
	}
	if highInst.Avg < 3 {
		t.Errorf("high load: inst improvement %.2fx, want a large factor", highInst.Avg)
	}
}

func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	fig, err := Figure10(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range fig.Groups {
		var pc, freq, inst Bar
		for _, b := range g.Bars {
			switch b.Label {
			case "PowerChief":
				pc = b
			case "Freq-Boosting":
				freq = b
			case "Inst-Boosting":
				inst = b
			}
		}
		t.Logf("%s: freq=%.1fx inst=%.1fx pc=%.1fx (p99 %.1f/%.1f/%.1f)",
			g.Label, freq.Avg, inst.Avg, pc.Avg, freq.P99, inst.P99, pc.P99)
		// PowerChief achieves the most latency reduction "in all cases"
		// (§8.2); allow a small tolerance for stochastic ties.
		best := freq.Avg
		if inst.Avg > best {
			best = inst.Avg
		}
		if pc.Avg < 0.85*best {
			t.Errorf("%s: PowerChief %.2fx well below best single technique %.2fx", g.Label, pc.Avg, best)
		}
		if pc.Avg < 1.0 {
			t.Errorf("%s: PowerChief made latency worse (%.2fx)", g.Label, pc.Avg)
		}
	}
	// High load: improvements must be large (paper: 32.8x avg).
	high := barOf(fig, "high", "PowerChief")
	if high.Avg < 5 {
		t.Errorf("high-load PowerChief improvement %.1fx, want ≥ 5x", high.Avg)
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	fig, err := Figure12(7)
	if err != nil {
		t.Fatal(err)
	}
	high := barOf(fig, "high", "PowerChief")
	t.Logf("NLP high: pc=%.1fx/%.1fx", high.Avg, high.P99)
	if high.Avg < 5 {
		t.Errorf("NLP high-load PowerChief improvement %.1fx, want ≥ 5x", high.Avg)
	}
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	res, err := Figure2(3)
	if err != nil {
		t.Fatal(err)
	}
	norm := map[string]float64{}
	for _, r := range res.Rows {
		norm[r.Label] = r.Normalized
		t.Logf("%-28s %.2f", r.Label, r.Normalized)
	}
	// Boosting the dominant QA stage must beat boosting the light IMM stage
	// under either technique (the Figure 2 premise).
	if norm["Inst-boost QA only"] >= norm["Inst-boost IMM only"] {
		t.Error("inst-boosting QA should beat inst-boosting IMM")
	}
	if norm["Freq-boost QA only"] >= norm["Freq-boost IMM only"] {
		t.Error("freq-boosting QA should beat freq-boosting IMM")
	}
	// The optimal decision (inst-boost QA) must reduce latency vs baseline.
	if norm["Inst-boost QA only"] >= 1.0 {
		t.Errorf("inst-boost QA normalized %.2f, want < 1", norm["Inst-boost QA only"])
	}
}

func TestFigure11TracesRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	res, err := Figure11(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for _, r := range res.Runs {
		if r.Trace.Get("power") == nil || len(r.Trace.Get("power").Points) == 0 {
			t.Errorf("%s: no power trace", r.Policy)
		}
		if r.Trace.Get("instances:QA") == nil {
			t.Errorf("%s: no QA instance-count trace", r.Policy)
		}
	}
	// Instance boosting and PowerChief launch extra instances under the
	// high phased load; the traces must show growth beyond one instance.
	for _, r := range res.Runs[1:] { // inst-boost, powerchief
		maxQA := 0.0
		for _, p := range r.Trace.Get("instances:QA").Points {
			if p.Value > maxQA {
				maxQA = p.Value
			}
		}
		if maxQA < 2 {
			t.Errorf("%s: QA never scaled beyond %v instances", r.Policy, maxQA)
		}
	}
}

func TestQoSExperimentsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	for name, fn := range map[string]func(int64) (*QoSResult, error){
		"figure13": Figure13,
		"figure14": Figure14,
	} {
		res, err := fn(9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var base, peg, pc QoSRun
		for _, r := range res.Runs {
			switch r.Policy {
			case "baseline":
				base = r
			case "pegasus":
				peg = r
			case "powerchief":
				pc = r
			}
		}
		t.Logf("%s: baseline power=%.2f lat=%.2f | pegasus power=%.2f lat=%.2f | powerchief power=%.2f lat=%.2f (withdrawn %d)",
			name, base.PowerFraction, base.QoSFraction, peg.PowerFraction, peg.QoSFraction,
			pc.PowerFraction, pc.QoSFraction, pc.Result.Withdrawn)
		// Baseline applies no control: full power.
		if base.PowerFraction < 0.99 {
			t.Errorf("%s: baseline power fraction %.2f, want ≈1", name, base.PowerFraction)
		}
		// PowerChief conserves more power than Pegasus (§8.4).
		if pc.PowerFraction >= peg.PowerFraction {
			t.Errorf("%s: PowerChief power %.2f not below Pegasus %.2f", name, pc.PowerFraction, peg.PowerFraction)
		}
		// Both meet the QoS on average.
		if pc.QoSFraction > 1.0 {
			t.Errorf("%s: PowerChief mean latency exceeded QoS (%.2f)", name, pc.QoSFraction)
		}
		if peg.QoSFraction > 1.0 {
			t.Errorf("%s: Pegasus mean latency exceeded QoS (%.2f)", name, peg.QoSFraction)
		}
	}
}

func TestComputeHeadline(t *testing.T) {
	f := &Figure{Groups: []BarGroup{
		{Label: "low load", Bars: []Bar{{Label: "PowerChief", Avg: 2, P99: 1.5}}},
		{Label: "high load", Bars: []Bar{{Label: "PowerChief", Avg: 30, P99: 20}}},
	}}
	q := &QoSResult{Runs: []QoSRun{
		{Policy: "pegasus", PowerFraction: 0.9},
		{Policy: "powerchief", PowerFraction: 0.6},
	}}
	h := ComputeHeadline(f, f, q, q)
	if h.SiriusAvgX != 16 || h.SiriusP99X != 10.75 {
		t.Errorf("mean improvements = %v/%v", h.SiriusAvgX, h.SiriusP99X)
	}
	if diff := h.SiriusPowerSaved - 0.3; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("power saved = %v, want 0.3", h.SiriusPowerSaved)
	}
}

func TestMitigationScenarioMatchesTable2(t *testing.T) {
	sc := mitigationScenario(app.Sirius(), "x", workload.High, nil, 1)
	if sc.Budget != MitigationBudget {
		t.Error("budget mismatch")
	}
	if sc.AdjustInterval.Seconds() != 25 {
		t.Error("adjust interval mismatch")
	}
	if tn := sc.tenant(); tn.StatsWindow != tn.AdjustInterval {
		t.Error("stats window default mismatch")
	}
	cfg := core.DefaultConfig()
	if cfg.WithdrawInterval.Seconds() != 150 || cfg.BalanceThreshold.Seconds() != 1 {
		t.Error("Table 2 control constants mismatch")
	}
}
