package harness

import (
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/stats"
	"powerchief/internal/workload"
)

// These tests assert the qualitative shape of each reproduced figure — who
// wins, by roughly what factor, where the crossovers fall — not absolute
// numbers. They are the executable form of EXPERIMENTS.md.

// mitigationScenario is the Table 2 setup with a directly built policy: one
// instance per stage at 1.8 GHz, 13.56 W budget, 25 s adjust interval.
func mitigationScenario(a app.App, name string, load workload.Level, policy func() core.Policy, seed int64) Scenario {
	return Scenario{
		Name:           name,
		App:            a,
		Level:          cmp.MidLevel,
		Budget:         MitigationBudget,
		Policy:         policy,
		Source:         ConstantLoad(load),
		Duration:       900 * time.Second,
		AdjustInterval: 25 * time.Second,
		Seed:           seed,
	}
}

// rowRuns evaluates the table's row name alone at seed.
func rowRuns(tb testing.TB, name string, seed int64) []*Result {
	tb.Helper()
	r, ok := LookupRow(name)
	if !ok {
		tb.Fatalf("no row %q", name)
	}
	ev, err := Evaluate([]Row{r}, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return ev.Runs[0]
}

// fakeRun is a result drawing power whose latencies are lat.
func fakeRun(power cmp.Watts, lat ...time.Duration) *Result {
	s := stats.NewSummary()
	for _, l := range lat {
		s.Observe(l)
	}
	return &Result{Latency: s, AvgPower: power}
}

// capture is a FileFunc keeping each written file's text in files.
func capture(files map[string]string) FileFunc {
	return func(name string, render func(io.Writer) error) error {
		var sb strings.Builder
		err := render(&sb)
		files[name] = sb.String()
		return err
	}
}

// figure2Norms is Figure 2's normalized latency by configuration label.
func figure2Norms(runs []*Result) map[string]float64 {
	norm := map[string]float64{}
	for i, st := range app.Sirius().Stages {
		for j, kind := range []string{"Freq", "Inst"} {
			norm[kind+"-boost "+st.Name+" only"] = float64(runs[1+2*i+j].Latency.Mean()) / float64(runs[0].Latency.Mean())
		}
	}
	return norm
}

// fakeQoSRun is a power-saving run drawing power of its 100 W peak, its
// window latency 1 s (half of Figure 13's QoS target).
func fakeQoSRun(power float64) *Result {
	r := &Result{PeakPower: 100, Trace: stats.NewTimeSeries()}
	r.Trace.Series("power").Add(time.Second, power*100)
	r.Trace.Series("latency").Add(time.Second, 1)
	return r
}

// bar is one policy's improvement over the baseline at one load.
type bar struct{ Avg, P99 float64 }

// bars is improvement figure f's bars from its runs, by load and policy
// label.
func bars(f improvement, runs []*Result) map[string]map[string]bar {
	out := map[string]map[string]bar{}
	for _, load := range f.loads {
		out[load.String()] = map[string]bar{}
		for i, p := range f.policies {
			avg, p99 := Improvement(runs[0], runs[1+i])
			out[load.String()][p.label] = bar{avg, p99}
		}
		runs = runs[1+len(f.policies):]
	}
	return out
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	fig := bars(fig4, rowRuns(t, "4", 11))
	lowFreq, lowInst := fig["low"]["Freq-Boosting"], fig["low"]["Inst-Boosting"]
	highFreq, highInst := fig["high"]["Freq-Boosting"], fig["high"]["Inst-Boosting"]
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
	fig := bars(fig10, rowRuns(t, "10", 7))
	for load, g := range fig {
		pc, freq, inst := g["PowerChief"], g["Freq-Boosting"], g["Inst-Boosting"]
		t.Logf("%s: freq=%.1fx inst=%.1fx pc=%.1fx (p99 %.1f/%.1f/%.1f)",
			load, freq.Avg, inst.Avg, pc.Avg, freq.P99, inst.P99, pc.P99)
		// PowerChief achieves the most latency reduction "in all cases"
		// (§8.2); allow a small tolerance for stochastic ties.
		best := freq.Avg
		if inst.Avg > best {
			best = inst.Avg
		}
		if pc.Avg < 0.85*best {
			t.Errorf("%s: PowerChief %.2fx well below best single technique %.2fx", load, pc.Avg, best)
		}
		if pc.Avg < 1.0 {
			t.Errorf("%s: PowerChief made latency worse (%.2fx)", load, pc.Avg)
		}
	}
	// High load: improvements must be large (paper: 32.8x avg).
	if high := fig["high"]["PowerChief"]; high.Avg < 5 {
		t.Errorf("high-load PowerChief improvement %.1fx, want ≥ 5x", high.Avg)
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	high := bars(fig12, rowRuns(t, "12", 7))["high"]["PowerChief"]
	t.Logf("NLP high: pc=%.1fx/%.1fx", high.Avg, high.P99)
	if high.Avg < 5 {
		t.Errorf("NLP high-load PowerChief improvement %.1fx, want ≥ 5x", high.Avg)
	}
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	norm := figure2Norms(rowRuns(t, "2", 3))
	for label, n := range norm {
		t.Logf("%-28s %.2f", label, n)
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
	runs := rowRuns(t, "11", 5)
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		if r.Trace.Get("power") == nil || len(r.Trace.Get("power").Points) == 0 {
			t.Errorf("%s: no power trace", r.Policy)
		}
		if r.Trace.Get("instances:QA") == nil {
			t.Errorf("%s: no QA instance-count trace", r.Policy)
		}
	}
	// Instance boosting and PowerChief launch extra instances under the
	// high phased load; the traces must show growth beyond one instance.
	for _, r := range runs[1:] { // inst-boost, powerchief
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
	for name, f := range map[string]qosFigure{"13": fig13, "14": fig14} {
		runs := rowRuns(t, name, 9)
		var power, lat [3]float64 // baseline, pegasus, powerchief
		for i, r := range runs {
			power[i] = powerFraction(r)
			lat[i], _ = qosFraction(r, f.qos)
		}
		t.Logf("%s: baseline power=%.2f lat=%.2f | pegasus power=%.2f lat=%.2f | powerchief power=%.2f lat=%.2f (withdrawn %d)",
			f.id, power[0], lat[0], power[1], lat[1], power[2], lat[2], runs[2].Withdrawn)
		// Baseline applies no control: full power.
		if power[0] < 0.99 {
			t.Errorf("%s: baseline power fraction %.2f, want ≈1", f.id, power[0])
		}
		// PowerChief conserves more power than Pegasus (§8.4).
		if power[2] >= power[1] {
			t.Errorf("%s: PowerChief power %.2f not below Pegasus %.2f", f.id, power[2], power[1])
		}
		// Both meet the QoS on average.
		if lat[2] > 1.0 {
			t.Errorf("%s: PowerChief mean latency exceeded QoS (%.2f)", f.id, lat[2])
		}
		if lat[1] > 1.0 {
			t.Errorf("%s: Pegasus mean latency exceeded QoS (%.2f)", f.id, lat[1])
		}
	}
}

func TestComputeHeadline(t *testing.T) {
	// PowerChief improves Sirius and NLP 2×, 4× and 6× over the three
	// loads; it draws 60 % of peak where Pegasus draws 90 %.
	var runs []*Result
	for range []improvement{fig10, fig12} {
		for _, x := range []time.Duration{2, 4, 6} {
			runs = append(runs, fakeRun(13, 12*time.Second), fakeRun(13, time.Second), fakeRun(13, time.Second),
				fakeRun(13, 12*time.Second/x))
		}
	}
	for range 2 {
		runs = append(runs, fakeQoSRun(1), fakeQoSRun(0.9), fakeQoSRun(0.6))
	}
	files := map[string]string{}
	if err := writeHeadline(runs, capture(files)); err != nil {
		t.Fatal(err)
	}
	got := files["headline.txt"]
	for _, want := range []string{"20.3x →  4.0x", "19.4x →  4.0x", "23% →    30%", "33% →    30%"} {
		if !strings.Contains(got, want) {
			t.Errorf("headline lacks %q:\n%s", want, got)
		}
	}
}

func TestMitigationScenarioMatchesTable2(t *testing.T) {
	sc, err := table2(app.Sirius(), workload.High, "baseline", 1).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Budget != MitigationBudget {
		t.Error("budget mismatch")
	}
	if sc.AdjustInterval.Seconds() != 25 || sc.Duration.Seconds() != 900 {
		t.Error("adjust interval or horizon mismatch")
	}
	if !slices.Equal(sc.Instances, []int{1, 1, 1}) || !slices.Equal(sc.StageLevels, []cmp.Level{cmp.MidLevel, cmp.MidLevel, cmp.MidLevel}) {
		t.Errorf("initial configuration %v @ %v", sc.Instances, sc.StageLevels)
	}
	if tn := sc.tenant(); tn.StatsWindow != tn.AdjustInterval {
		t.Error("stats window default mismatch")
	}
	cfg := core.DefaultConfig()
	if cfg.WithdrawInterval.Seconds() != 150 || cfg.BalanceThreshold.Seconds() != 1 {
		t.Error("Table 2 control constants mismatch")
	}
}

// tableKeys is every key the table's rows name at seed, normalized.
func tableKeys(seed int64) []Key {
	var keys []Key
	for _, r := range Table() {
		if r.Keys == nil {
			continue
		}
		for _, k := range r.Keys(seed) {
			keys = append(keys, k.normalized())
		}
	}
	return keys
}

// TestTableRunsEachDistinctScenarioOnce: the whole evaluation names 84
// scenarios, 61 of them distinct, and runs each distinct one exactly once.
func TestTableRunsEachDistinctScenarioOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	var runs atomic.Int64
	defer func(run func(Scenario) (*Result, error)) { runScenario = run }(runScenario)
	runScenario = func(sc Scenario) (*Result, error) {
		runs.Add(1)
		return Run(sc)
	}
	ev, err := Evaluate(Table(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Requested != 84 || ev.Distinct != 61 || runs.Load() != 61 {
		t.Errorf("requested %d, distinct %d, ran %d; want 84, 61, 61", ev.Requested, ev.Distinct, runs.Load())
	}
}

// TestTableKeysArePureFunctionsOfTheSeed: building the keys twice gives the
// same keys; another seed shares none of them.
func TestTableKeysArePureFunctionsOfTheSeed(t *testing.T) {
	a, b := tableKeys(7), tableKeys(7)
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatal("two builds of the table's keys at one seed differ")
	}
	seen := map[Key]bool{}
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range tableKeys(8) {
		if seen[k] {
			t.Fatalf("key %+v is built at both seeds", k)
		}
	}
}

// TestKeyDefaultsDedupe: each spelling of a default normalizes to one key.
func TestKeyDefaultsDedupe(t *testing.T) {
	base := table2(app.Sirius(), workload.Medium, "baseline", 7)
	for name, spell := range map[string]func(*Key){
		"policy":     func(k *Key) { k.Policy = "" },
		"dispatcher": func(k *Key) { k.Dispatcher = "join-shortest-queue" },
		"adjust":     func(k *Key) { k.AdjustInterval = 0 },
		"window":     func(k *Key) { k.StatsWindow = 25 * time.Second },
		"cores":      func(k *Key) { k.Cores = 16 },
		"reference":  func(k *Key) { k.RefInstances, k.RefLevel = k.Instances, cmp.MidLevel },
	} {
		k := base
		spell(&k)
		if k.normalized() != base.normalized() {
			t.Errorf("%s: %+v and %+v differ", name, k.normalized(), base.normalized())
		}
	}
}
