package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/core"
	"powerchief/internal/workload"
)

// AblationRow is one variant's outcome: its improvement over the study's
// baseline and its average draw.
type AblationRow struct {
	Label    string
	Avg, P99 float64
	AvgPower float64
}

// study evaluates ablation id alone at seed.
func study(tb testing.TB, id string, seed int64) (ablation, []AblationRow) {
	tb.Helper()
	i := slices.IndexFunc(ablations, func(a ablation) bool { return a.id == id })
	if i < 0 {
		tb.Fatalf("no study %s", id)
	}
	a := ablations[i]
	ev, err := Evaluate([]Row{{Name: id, Keys: a.keys}}, seed)
	if err != nil {
		tb.Fatal(err)
	}
	runs := ev.Runs[0]
	var rows []AblationRow
	for i, v := range a.variants {
		avg, p99 := Improvement(runs[0], runs[1+i])
		rows = append(rows, AblationRow{Label: v.label, Avg: avg, P99: p99, AvgPower: float64(runs[1+i].AvgPower)})
	}
	return a, rows
}

func rowOf(rows []AblationRow, label string) (AblationRow, bool) {
	for _, r := range rows {
		if strings.HasPrefix(r.Label, label) {
			return r, true
		}
	}
	return AblationRow{}, false
}

func TestAblationMetricEq1Wins(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	metric, res := study(t, "ablation-metric", 13)
	eq1, ok := rowOf(res, "expected-delay")
	if !ok {
		t.Fatal("Eq.1 row missing")
	}
	for _, r := range res {
		t.Logf("%-24s avg=%.1fx p99=%.1fx power=%.2fW", r.Label, r.Avg, r.P99, r.AvgPower)
	}
	if eq1.Avg < 5 {
		t.Errorf("Eq.1 improvement %.1fx suspiciously low", eq1.Avg)
	}
	// The serving-only metric's row reads ≈1× because that PowerChief never
	// acts: serving times alone stay within the balance threshold of each
	// other, so every tick is balanced. The row measures the threshold, not
	// the metric's ranking.
	i := slices.IndexFunc(metric.variants, func(v tweak) bool { return v.label == "avg-serving" })
	sc, err := metric.keys(13)[1+i].Scenario()
	if err != nil {
		t.Fatal(err)
	}
	serving, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var spread time.Duration
	frames := serving.Decisions.Trace().Frames
	for _, f := range frames {
		if f.Decided || len(f.Plan) > 0 || len(f.Withdraw) > 0 || f.Outcome.Kind != core.BoostNone {
			t.Errorf("tick %d: avg-serving acted (%v)", f.Tick, f.Outcome.Kind)
		}
		if f.Identified != nil {
			spread = max(spread, f.Identified.Spread)
		}
	}
	if len(frames) == 0 || spread >= core.DefaultConfig().BalanceThreshold {
		t.Errorf("avg-serving: %d ticks, largest spread %v, want ticks all under the %v balance threshold",
			len(frames), spread, core.DefaultConfig().BalanceThreshold)
	}
	t.Logf("avg-serving: %d ticks, no action, largest spread %v", len(frames), spread)
}

func TestAblationWithdrawHelpsPhasedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	_, res := study(t, "ablation-withdraw", 5)
	on, _ := rowOf(res, "withdraw-150s")
	off, _ := rowOf(res, "withdraw-off")
	t.Logf("withdraw on: %.1fx @ %.2fW; off: %.1fx @ %.2fW", on.Avg, on.AvgPower, off.Avg, off.AvgPower)
	// Withdraw must not hurt latency and should not use more power.
	if on.Avg < 0.8*off.Avg {
		t.Errorf("withdraw hurt latency: %.1fx vs %.1fx", on.Avg, off.Avg)
	}
}

func TestAblationSplitCloneHelpsMediumLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	_, res := study(t, "ablation-splitclone", 7)
	with, _ := rowOf(res, "split-clone")
	without, _ := rowOf(res, "literal-alg1")
	t.Logf("split-clone: %.2fx; literal: %.2fx", with.Avg, without.Avg)
	if with.Avg < without.Avg {
		t.Errorf("split-clone (%.2fx) did not beat the literal algorithm (%.2fx)", with.Avg, without.Avg)
	}
}

func TestAblationThresholdSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	_, res := study(t, "ablation-threshold", 7)
	if len(res) != 3 {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		t.Logf("%-14s avg=%.1fx", r.Label, r.Avg)
		if r.Avg < 1 {
			t.Errorf("threshold %s made high load worse (%.2fx)", r.Label, r.Avg)
		}
	}
}

func TestAblationDispatcherRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	_, res := study(t, "ablation-dispatcher", 7)
	if len(res) != 3 {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		t.Logf("%-22s avg=%.1fx p99=%.1fx", r.Label, r.Avg, r.P99)
		if r.Avg < 3 {
			t.Errorf("dispatcher %s collapsed under PowerChief (%.1fx)", r.Label, r.Avg)
		}
	}
}

func TestWriteAblationAndTail(t *testing.T) {
	// Every study's baseline averages 2 s, every variant 1 s.
	var runs []*Result
	for _, a := range ablations {
		runs = append(runs, fakeRun(13, 2*time.Second))
		for range a.variants {
			runs = append(runs, fakeRun(10, time.Second))
		}
	}
	files := map[string]string{}
	if err := writeAblations(runs, capture(files)); err != nil {
		t.Fatal(err)
	}
	if got := files["ablations.txt"]; !strings.Contains(got, "round-robin           2.0x") ||
		strings.Count(got, "\n\n") != len(ablations) {
		t.Errorf("ablation tables = %q", got)
	}
	runs = runs[:len(tailPolicies)]
	if err := writeTail(runs, capture(files)); err != nil {
		t.Fatal(err)
	}
	if got := files["tail.txt"]; !strings.Contains(got, "p50") || !strings.Contains(got, "Baseline       2s") {
		t.Errorf("tail table = %q", got)
	}
}

func TestTailAnalysisOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	runs := rowRuns(t, "tail", 7)
	if len(runs) != len(tailPolicies) {
		t.Fatalf("runs = %d", len(runs))
	}
	for i, r := range runs {
		l := r.Latency
		t.Logf("%-14s p50=%v p99=%v p99.9=%v", tailPolicies[i].label, l.P50(), l.P99(), l.Percentile(0.999))
		// Percentiles are monotone within a row.
		var last time.Duration
		for _, p := range []float64{0.50, 0.90, 0.95, 0.99, 0.999, 1} {
			if v := l.Percentile(p); v < last {
				t.Errorf("%s: p%v = %v below %v", tailPolicies[i].label, p*100, v, last)
			} else {
				last = v
			}
		}
	}
	// PowerChief compresses the whole distribution under the constraint.
	base, pc := runs[0].Latency.Percentile(0.999), runs[len(runs)-1].Latency.Percentile(0.999)
	if tailPolicies[len(runs)-1].label != "PowerChief" || pc >= base {
		t.Errorf("PowerChief p99.9 (%v) not below baseline (%v)", pc, base)
	}
}

func TestHopDelayExtension(t *testing.T) {
	base := mitigationScenario(app.Sirius(), "hop-base", workload.Low, nil, 3)
	base.Duration = 300 * time.Second
	noHop, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withHop := base
	withHop.Name = "hop-10ms"
	withHop.HopDelay = func(from, to int) time.Duration { return 10 * time.Millisecond }
	hop, err := Run(withHop)
	if err != nil {
		t.Fatal(err)
	}
	// Two inter-stage hops of 10ms each: mean latency grows by ≈20ms.
	delta := hop.Latency.Mean() - noHop.Latency.Mean()
	if delta < 15*time.Millisecond || delta > 120*time.Millisecond {
		t.Errorf("hop delay added %v to mean latency, want ≈20ms", delta)
	}
	if hop.Completed != noHop.Completed {
		t.Errorf("hop delay changed completions: %d vs %d", hop.Completed, noHop.Completed)
	}
}

// TestColocatedApplications demonstrates §8.5's per-application management:
// two independent applications, each with its own chip budget and its own
// PowerChief instance, sharing one simulation timeline.
func TestColocatedApplications(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	run := func(name string, a app.App, seed int64) (*Result, *Result) {
		base, err := Run(mitigationScenario(a, name+"-base", workload.High, nil, seed))
		if err != nil {
			t.Fatal(err)
		}
		managed, err := Run(mitigationScenario(a, name+"-pc", workload.High, func() core.Policy {
			return core.NewPowerChief(core.DefaultConfig())
		}, seed))
		if err != nil {
			t.Fatal(err)
		}
		return base, managed
	}
	// Each application is managed on a per-application basis: its own
	// budget, its own Command Center (the paper's assumption in §8.5). Both
	// must improve independently.
	sb, sm := run("colo-sirius", app.Sirius(), 11)
	nb, nm := run("colo-nlp", app.NLP(), 12)
	sAvg, _ := Improvement(sb, sm)
	nAvg, _ := Improvement(nb, nm)
	t.Logf("sirius %.1fx, nlp %.1fx under per-app budgets", sAvg, nAvg)
	if sAvg < 2 || nAvg < 2 {
		t.Errorf("per-app management underperformed: %.1fx / %.1fx", sAvg, nAvg)
	}
}
