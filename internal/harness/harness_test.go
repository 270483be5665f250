package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/config"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/replay"
	"powerchief/internal/stage"
	"powerchief/internal/workload"
)

func TestRunValidation(t *testing.T) {
	base := Scenario{App: app.Sirius(), Level: cmp.MidLevel, Budget: 13.56}
	if _, err := Run(base); err == nil {
		t.Error("zero duration accepted")
	}
	bad := base
	bad.Duration = time.Second
	bad.StageLevels = []cmp.Level{cmp.MidLevel} // 1 level for 3 stages
	if _, err := Run(bad); err == nil {
		t.Error("stage-level shape mismatch accepted")
	}
	empty := Scenario{Duration: time.Second}
	if _, err := Run(empty); err == nil {
		t.Error("empty app accepted")
	}
	tiny := base
	tiny.Duration = time.Second
	tiny.Budget = 1 // cannot host the initial configuration
	if _, err := Run(tiny); err == nil {
		t.Error("infeasible budget accepted")
	}
}

func TestRunDerivesBudgetFromConfiguration(t *testing.T) {
	res, err := Run(Scenario{
		App: app.Sirius(), Level: cmp.MidLevel, Budget: 0,
		Source: ConstantLoad(workload.Low), Duration: 60 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * cmp.DefaultModel().Power(cmp.MidLevel)
	if !cmp.ApproxEqual(res.PeakPower, want) {
		t.Errorf("derived peak = %v, want %v", res.PeakPower, want)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(mitigationScenario(app.Sirius(), "det", workload.High, func() core.Policy {
			return core.NewPowerChief(core.DefaultConfig())
		}, 123))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Latency.Mean() != b.Latency.Mean() ||
		a.Latency.P99() != b.Latency.P99() || a.AvgPower != b.AvgPower {
		t.Errorf("same seed diverged: %v vs %v (%d vs %d queries)",
			a.Latency.Mean(), b.Latency.Mean(), a.Completed, b.Completed)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	r1, err := Run(mitigationScenario(app.Sirius(), "s1", workload.High, nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(mitigationScenario(app.Sirius(), "s2", workload.High, nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completed == r2.Completed && r1.Latency.Mean() == r2.Latency.Mean() {
		t.Error("different seeds produced identical runs")
	}
}

func TestRunDrainCompletesQueries(t *testing.T) {
	// Even under overload, the drain phase (generator stopped) lets all
	// submitted queries finish within the drain window for this short run.
	res, err := Run(mitigationScenario(app.Sirius(), "drain", workload.High, nil, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Submitted {
		t.Errorf("completed %d of %d after drain", res.Completed, res.Submitted)
	}
}

func TestRunRecordsTraceSeries(t *testing.T) {
	res, err := Run(mitigationScenario(app.Sirius(), "trace", workload.Medium, func() core.Policy {
		return core.NewPowerChief(core.DefaultConfig())
	}, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"power", "latency", "instances:ASR", "instances:QA", "freq:QA_1"} {
		if res.Trace.Get(name) == nil {
			t.Errorf("missing trace series %q", name)
		}
	}
	// Power trace never exceeds the budget.
	for _, p := range res.Trace.Get("power").Points {
		if p.Value > 13.56+1e-6 {
			t.Fatalf("power sample %v exceeds the budget", p.Value)
		}
	}
	var sb strings.Builder
	if err := WriteRuntimeTrace(&sb, res.Scenario, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "time_s,power") {
		t.Error("trace CSV header missing")
	}
}

func TestRendererOutputs(t *testing.T) {
	// Every load's policies run at half the baseline's latency.
	var runs []*Result
	for range fig10.loads {
		runs = append(runs, fakeRun(13, 2*time.Second))
		for range fig10.policies {
			runs = append(runs, fakeRun(13, time.Second))
		}
	}
	files := map[string]string{}
	if err := fig10.write(runs, capture(files)); err != nil {
		t.Fatal(err)
	}
	if got := files["figure10.txt"]; strings.Count(got, "2.0x         2.0x") != 9 {
		t.Errorf("figure table = %q", got)
	}
	if err := writeFigure2(runs[:7], capture(files)); err != nil {
		t.Fatal(err)
	}
	if got := files["figure2.txt"]; !strings.Contains(got, "Inst-boost QA only         0.50") {
		t.Errorf("figure2 table = %q", got)
	}
	// Draws 100 %, 90 % and 60 % of peak: PowerChief saves 40 %.
	qos := []*Result{fakeQoSRun(1), fakeQoSRun(0.9), fakeQoSRun(0.6)}
	if err := fig13.write(qos, capture(files)); err != nil {
		t.Fatal(err)
	}
	if got := files["figure13.txt"]; !strings.Contains(got, "powerchief  0.50         0.60        40%") {
		t.Errorf("qos table = %q", got)
	}
	if got := files["figure13-pegasus.csv"]; !strings.HasPrefix(got, "# figure13-pegasus (") {
		t.Errorf("qos trace = %q", got)
	}
}

func TestObserveHookReceivesRecords(t *testing.T) {
	sc := mitigationScenario(app.Sirius(), "observe", workload.Low, nil, 9)
	sc.Duration = 60 * time.Second
	seen := 0
	sc.Observe = func(q *query.Query) {
		seen++
		if len(q.Records) != 3 {
			t.Errorf("query %d carried %d records, want 3", q.ID, len(q.Records))
		}
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(seen) != res.Completed {
		t.Errorf("observed %d of %d completions", seen, res.Completed)
	}
}

// TestObserveHookMayKeepEveryQuery: the run recycles its queries, the
// Observe hook does not know — it may keep every query it is handed and finds
// each one intact and its own at the end of the run.
func TestObserveHookMayKeepEveryQuery(t *testing.T) {
	sc := mitigationScenario(app.Sirius(), "observe-keep", workload.Medium, nil, 9)
	sc.Duration = 120 * time.Second
	type kept struct {
		q             *query.Query
		id            query.ID
		arrival, done time.Duration
		work          time.Duration
		last          query.Record
	}
	var all []kept
	sc.Observe = func(q *query.Query) {
		all = append(all, kept{q, q.ID, q.Arrival, q.Done, q.Work[2][0], q.Records[2]})
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(all)) != res.Completed || len(all) < 100 {
		t.Fatalf("kept %d of %d completed queries", len(all), res.Completed)
	}
	distinct := make(map[*query.Query]bool)
	for _, k := range all {
		distinct[k.q] = true
		if k.q.ID != k.id || k.q.Arrival != k.arrival || k.q.Done != k.done ||
			len(k.q.Work) != 3 || k.q.Work[2][0] != k.work ||
			len(k.q.Records) != 3 || k.q.Records[2] != k.last || k.last.Query != k.id {
			t.Fatalf("query %d changed after Observe returned: %+v, records %+v", k.id, k.q, k.q.Records)
		}
	}
	if len(distinct) != len(all) {
		t.Errorf("Observe was handed %d distinct queries for %d completions", len(distinct), len(all))
	}
}

func TestFromConfigRoundTrip(t *testing.T) {
	e := config.MitigationSetup("sirius", "powerchief", "high", 7)
	e.Duration = config.Duration(120 * time.Second)
	sc, err := FromConfig(e)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Budget != 13.56 || sc.Level != cmp.MidLevel || sc.AdjustInterval != 25*time.Second {
		t.Errorf("scenario fields wrong: %+v", sc)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "powerchief" || res.Completed == 0 {
		t.Errorf("run from config: policy=%s completed=%d", res.Policy, res.Completed)
	}
	// Every registered policy name materializes.
	for _, p := range replay.PolicyNames() {
		e := config.MitigationSetup("nlp", p, "low", 1)
		e.QoS = config.Duration(2 * time.Second)
		if _, err := FromConfig(e); err != nil {
			t.Errorf("FromConfig(%s): %v", p, err)
		}
	}
}

// TestFromConfigZeroBalanceThreshold: a config's "0s" balance threshold is
// a zero threshold, the run the ablation-threshold study's 0s variant keys.
func TestFromConfigZeroBalanceThreshold(t *testing.T) {
	const horizon = 300 * time.Second
	e := config.MitigationSetup("sirius", "powerchief", "high", 7)
	e.BalanceThreshold, e.Duration = 0, config.Duration(horizon)
	sc, err := FromConfig(e)
	if err != nil {
		t.Fatal(err)
	}
	fromConfig, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	study := ablations[slices.IndexFunc(ablations, func(a ablation) bool { return a.id == "ablation-threshold" })]
	k := study.keys(7)[1+slices.IndexFunc(study.variants, func(v tweak) bool { return v.label == "0s" })]
	k.Horizon = horizon
	if sc, err = k.Scenario(); err != nil {
		t.Fatal(err)
	}
	keyed, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	for _, r := range []struct {
		w   *strings.Builder
		res *Result
	}{{&a, fromConfig}, {&b, keyed}} {
		r.res.Scenario = "run"
		if err := WriteResult(r.w, r.res); err != nil {
			t.Fatal(err)
		}
		if err := r.res.Trace.WriteCSV(r.w); err != nil {
			t.Fatal(err)
		}
	}
	if a.String() != b.String() {
		t.Errorf("config with a 0s threshold:\n%.400s\nablation-threshold/0s:\n%.400s", a.String(), b.String())
	}
	if boosts := fromConfig.Boosts[core.BoostFrequency] + fromConfig.Boosts[core.BoostInstance]; boosts == 0 {
		t.Error("the zero-threshold run never boosted")
	}
}

// TestFromConfigRejectsBadNames: the app and policy names of a config are
// checked where they resolve, so FromConfig refuses what config.Validate
// no longer lists.
func TestFromConfigRejectsBadNames(t *testing.T) {
	good := config.MitigationSetup("sirius", "powerchief", "high", 1)
	for name, mut := range map[string]func(*config.Experiment){
		"bad app":         func(e *config.Experiment) { e.App = "doom" },
		"bad policy":      func(e *config.Experiment) { e.Policy = "yolo" },
		"saver w/o qos":   func(e *config.Experiment) { e.Policy = "saver"; e.QoS = 0 },
		"pegasus w/o qos": func(e *config.Experiment) { e.Policy = "pegasus"; e.QoS = 0 },
	} {
		e := good
		mut(&e)
		if _, err := FromConfig(e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFromConfigRunsArenaPolicy: a JSON experiment may name any registered
// policy, the stage-level dividers included.
func TestFromConfigRunsArenaPolicy(t *testing.T) {
	e, err := config.Read(strings.NewReader(`{"name":"fair","app":"sirius","policy":"fairness",
		"level_ghz":1.8,"budget_watts":13.56,"load_level":"high","duration":"300s","adjust_interval":"25s","seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := FromConfig(e)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "fairness" || res.Completed != res.Submitted || res.AvgPower > sc.Budget {
		t.Errorf("policy %s completed %d/%d at %.3f W", res.Policy, res.Completed, res.Submitted, res.AvgPower)
	}
}

func TestDispatcherOptionApplied(t *testing.T) {
	// A round-robin dispatcher spreads queries evenly even when queue
	// lengths differ — observable through per-instance served counts only
	// indirectly; here we simply assert the option survives a full run.
	sc := mitigationScenario(app.Sirius(), "rr", workload.Medium, nil, 5)
	sc.Instances = []int{2, 1, 2}
	sc.Budget = 40
	sc.Dispatcher = func() stage.Dispatcher { return &stage.RoundRobin{} }
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no queries completed with a custom dispatcher")
	}
}
