package harness

import (
	"maps"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/workload"
)

// twoTenantScenario is the controlled fixture: one nearly idle tenant and
// one overloaded tenant with identical pipelines, so arbitration has an
// unambiguous right answer (move watts to the busy one).
func twoTenantScenario(arb func() core.Policy, seed int64) MultiScenario {
	tenant := func(name string, load float64) Tenant {
		return Tenant{
			Name: name, App: app.WebSearch(),
			Instances:      []int{1, 1},
			Level:          6,
			QoS:            500 * time.Millisecond,
			AdjustInterval: 10 * time.Second,
			Source: func(capacity float64) workload.Source {
				return workload.Constant(load * capacity)
			},
		}
	}
	return MultiScenario{
		Name:            "two-tenant-test",
		Tenants:         []Tenant{tenant("idle", 0.1), tenant("busy", 2.5)},
		Arbiter:         arb,
		ArbiterInterval: 20 * time.Second,
		Duration:        300 * time.Second,
		Seed:            seed,
	}
}

func proportionalArbiter() core.Policy { return arbiter.New(arbiter.Proportional{}) }

// TestRunMultiConservesBudgetEveryEpoch is the hierarchy acceptance
// property: across every arbiter epoch Σ per-tenant grants stays within the
// chip budget, and the arbitration visibly moves watts toward the
// overloaded tenant.
func TestRunMultiConservesBudgetEveryEpoch(t *testing.T) {
	res, err := RunMulti(twoTenantScenario(proportionalArbiter, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("domain invariant violated after %d arbiter epochs", res.Violations)
	}
	if res.ArbiterEpochs < 5 {
		t.Fatalf("arbiter ran only %d epochs", res.ArbiterEpochs)
	}
	if res.MaxGranted > res.Budget+1e-6 {
		t.Fatalf("Σ grants peaked at %.4fW over the %.4fW budget", float64(res.MaxGranted), float64(res.Budget))
	}
	idle, busy := res.Tenants[0], res.Tenants[1]
	if idle.Name != "idle" || busy.Name != "busy" {
		t.Fatalf("tenant order changed: %q, %q", idle.Name, busy.Name)
	}
	if busy.FinalGrant <= busy.InitialGrant {
		t.Fatalf("arbitration never raised the busy tenant: %.2fW -> %.2fW",
			float64(busy.InitialGrant), float64(busy.FinalGrant))
	}
	if idle.FinalGrant >= idle.InitialGrant {
		t.Fatalf("arbitration never reclaimed from the idle tenant: %.2fW -> %.2fW",
			float64(idle.InitialGrant), float64(idle.FinalGrant))
	}
	if sum := idle.FinalGrant + busy.FinalGrant; sum > res.Budget+1e-6 {
		t.Fatalf("final split %.4fW exceeds budget %.4fW", float64(sum), float64(res.Budget))
	}
	if idle.Completed == 0 || busy.Completed == 0 {
		t.Fatalf("tenants completed %d/%d queries", idle.Completed, busy.Completed)
	}
}

// TestRunMultiStaticBaselineKeepsSplit pins the nil-Arbiter contract: the
// initial weight-proportional split never moves.
func TestRunMultiStaticBaselineKeepsSplit(t *testing.T) {
	res, err := RunMulti(twoTenantScenario(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arbiter != "static-split" {
		t.Fatalf("baseline named %q", res.Arbiter)
	}
	if res.ArbiterEpochs != 0 || res.Violations != 0 {
		t.Fatalf("baseline ran %d arbiter epochs, %d violations", res.ArbiterEpochs, res.Violations)
	}
	for _, tr := range res.Tenants {
		if tr.FinalGrant != tr.InitialGrant {
			t.Fatalf("tenant %s drifted from %.2fW to %.2fW without an arbiter",
				tr.Name, float64(tr.InitialGrant), float64(tr.FinalGrant))
		}
	}
}

// TestRunMultiArbitrationBeatsStaticSplit is the headline comparison: same
// arrivals, same budget — re-granting QoS headroom to the overloaded tenant
// must beat the frozen split on combined P99.
func TestRunMultiArbitrationBeatsStaticSplit(t *testing.T) {
	static, err := RunMulti(twoTenantScenario(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	arb, err := RunMulti(twoTenantScenario(proportionalArbiter, 1))
	if err != nil {
		t.Fatal(err)
	}
	if arb.Combined.P99() >= static.Combined.P99() {
		t.Fatalf("arbitration did not improve combined P99: %v vs static %v",
			arb.Combined.P99(), static.Combined.P99())
	}
}

// TestRunMultiDeterministic: same scenario, same seed, same numbers.
func TestRunMultiDeterministic(t *testing.T) {
	a, err := RunMulti(twoTenantScenario(proportionalArbiter, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(twoTenantScenario(proportionalArbiter, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Combined.Count() != b.Combined.Count() || a.Combined.P99() != b.Combined.P99() {
		t.Fatalf("runs diverged: %d/%v vs %d/%v",
			a.Combined.Count(), a.Combined.P99(), b.Combined.Count(), b.Combined.P99())
	}
	for i := range a.Tenants {
		if a.Tenants[i].FinalGrant != b.Tenants[i].FinalGrant {
			t.Fatalf("tenant %s final grant diverged: %v vs %v",
				a.Tenants[i].Name, a.Tenants[i].FinalGrant, b.Tenants[i].FinalGrant)
		}
	}
}

// TestRunMultiRollbackPreservesSplit wires an unshedable cut: the idle
// tenant sits at the DVFS floor, and an explicit Floor below its minimum
// draw makes every arbiter epoch demand a cut its actuator must refuse. The
// executor rolls the plan back, so the split never moves and the busy
// tenant's increase (planned after the decrease) never lands half-applied.
func TestRunMultiRollbackPreservesSplit(t *testing.T) {
	sc := twoTenantScenario(proportionalArbiter, 3)
	sc.Tenants[0].Level = 0 // idle tenant already at the ladder floor
	sc.Floor = 0.5          // below the idle tenant's minimum draw
	sc.Hysteresis = 0.01
	res, err := RunMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArbiterEpochs < 5 {
		t.Fatalf("arbiter ran only %d epochs", res.ArbiterEpochs)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations during rollbacks", res.Violations)
	}
	for _, tr := range res.Tenants {
		if tr.FinalGrant != tr.InitialGrant {
			t.Fatalf("rollback leaked: tenant %s moved from %.4fW to %.4fW",
				tr.Name, float64(tr.InitialGrant), float64(tr.FinalGrant))
		}
	}
}

// TestBenchTenantScenario smoke-runs the recorded benchmark shape under
// both modes and checks the acceptance ordering on combined P99.
func TestBenchTenantScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("long DES run")
	}
	sc := BenchTenantScenario(42)
	static, err := RunMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc = BenchTenantScenario(42)
	sc.Arbiter = proportionalArbiter
	arb, err := RunMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	if arb.Violations != 0 {
		t.Fatalf("%d invariant violations", arb.Violations)
	}
	if arb.Combined.P99() >= static.Combined.P99() {
		t.Fatalf("bench scenario: arbitration P99 %v not below static %v",
			arb.Combined.P99(), static.Combined.P99())
	}
}

// TestRunMultiTenantChurn is the membership acceptance property: evicting a
// tenant mid-run returns its grant to the root, re-admitting it lands a
// grant of at least the floor (reclaimed from the richest tenant if the
// arbiter granted the headroom away), and the hierarchy invariant holds
// across every epoch and both transitions.
func TestRunMultiTenantChurn(t *testing.T) {
	churned := twoTenantScenario(proportionalArbiter, 5)
	churned.Churn = []ChurnEvent{
		{At: 100 * time.Second, Tenant: "idle"},
		{At: 200 * time.Second, Tenant: "idle", Admit: true},
	}
	res, err := RunMulti(churned)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("domain invariant violated %d times across churn", res.Violations)
	}
	if res.MaxGranted > res.Budget+1e-6 {
		t.Fatalf("Σ grants peaked at %.4fW over the %.4fW budget", float64(res.MaxGranted), float64(res.Budget))
	}
	if len(res.Churn) != 2 {
		t.Fatalf("recorded %d churn events, want 2: %+v", len(res.Churn), res.Churn)
	}
	evict, admit := res.Churn[0], res.Churn[1]
	if evict.Admit || evict.Tenant != "idle" || evict.Watts <= 0 {
		t.Fatalf("eviction record %+v", evict)
	}
	if !admit.Admit || admit.Tenant != "idle" || admit.Watts < res.Floor-1e-9 {
		t.Fatalf("re-admission record %+v below the %.2fW floor", admit, float64(res.Floor))
	}
	idle := res.Tenants[0]
	if idle.Name != "idle" {
		t.Fatalf("tenant order changed: %q", idle.Name)
	}
	if idle.FinalGrant < res.Floor-1e-9 {
		t.Fatalf("re-admitted tenant ended at %.2fW, below the %.2fW floor",
			float64(idle.FinalGrant), float64(res.Floor))
	}
	// The grant trace shows the evicted window: the ledger held nothing for
	// the tenant between the transitions.
	sawZero := false
	for _, p := range res.Trace.Get("grant:idle").Points {
		if p.At > 100*time.Second && p.At < 200*time.Second && p.Value == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Fatal("grant trace never showed the evicted tenant at 0W")
	}

	// Arrivals really paused: the churned run submits fewer idle-tenant
	// queries than the same seed without churn.
	baseline, err := RunMulti(twoTenantScenario(proportionalArbiter, 5))
	if err != nil {
		t.Fatal(err)
	}
	if idle.Submitted >= baseline.Tenants[0].Submitted {
		t.Fatalf("eviction did not pause arrivals: %d submitted vs %d without churn",
			idle.Submitted, baseline.Tenants[0].Submitted)
	}
	if baseline.Violations != 0 {
		t.Fatalf("baseline run violated the invariant %d times", baseline.Violations)
	}
}

// TestRunMultiChurnDeterministic: churn transitions are engine events, so
// the same scenario and seed reproduce the same numbers.
func TestRunMultiChurnDeterministic(t *testing.T) {
	scenario := func() MultiScenario {
		sc := twoTenantScenario(proportionalArbiter, 11)
		sc.Churn = []ChurnEvent{
			{At: 90 * time.Second, Tenant: "busy"},
			{At: 170 * time.Second, Tenant: "busy", Admit: true},
		}
		return sc
	}
	a, err := RunMulti(scenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(scenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Combined.Count() != b.Combined.Count() || a.Combined.P99() != b.Combined.P99() {
		t.Fatalf("churned runs diverged: %d/%v vs %d/%v",
			a.Combined.Count(), a.Combined.P99(), b.Combined.Count(), b.Combined.P99())
	}
	for i := range a.Churn {
		if a.Churn[i] != b.Churn[i] {
			t.Fatalf("churn records diverged: %+v vs %+v", a.Churn[i], b.Churn[i])
		}
	}
}

// TestRunMultiChurnRejectsBadEvents pins the upfront validation: unknown
// tenants and out-of-horizon times fail before the run starts, and a
// double eviction surfaces as a run error.
func TestRunMultiChurnRejectsBadEvents(t *testing.T) {
	sc := twoTenantScenario(proportionalArbiter, 1)
	sc.Churn = []ChurnEvent{{At: 50 * time.Second, Tenant: "nobody"}}
	if _, err := RunMulti(sc); err == nil {
		t.Fatal("unknown churn tenant accepted")
	}
	sc = twoTenantScenario(proportionalArbiter, 1)
	sc.Churn = []ChurnEvent{{At: sc.Duration + time.Second, Tenant: "idle"}}
	if _, err := RunMulti(sc); err == nil {
		t.Fatal("out-of-horizon churn event accepted")
	}
	sc = twoTenantScenario(proportionalArbiter, 1)
	sc.Churn = []ChurnEvent{
		{At: 50 * time.Second, Tenant: "idle"},
		{At: 60 * time.Second, Tenant: "idle"},
	}
	if _, err := RunMulti(sc); err == nil {
		t.Fatal("double eviction did not fail the run")
	}
}

// TestRunMatchesRunMultiWithOneTenant: Run and RunMulti place an application
// through the same component, so one tenant on a 16-core chip under
// RunMulti's static split runs Run's scenario query for query and decision
// for decision — Table 2 Sirius under PowerChief and Freq-Boosting, and the
// Table 3 Sirius configuration under the QoS saver.
func TestRunMatchesRunMultiWithOneTenant(t *testing.T) {
	cfg := core.DefaultConfig()
	bursty := func(capacity float64) workload.Source {
		base := workload.RateForUtilization(capacity, 0.40)
		tr, err := workload.BurstTrace(base, 2.2*base, 40*time.Second, 10*time.Second, 360*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, tc := range []struct {
		name     string
		tenant   Tenant
		budget   cmp.Watts
		duration time.Duration
	}{
		{"powerchief", Tenant{
			App: app.Sirius(), Level: cmp.MidLevel, AdjustInterval: 25 * time.Second,
			Policy: func() core.Policy { return core.NewPowerChief(cfg) },
			Source: ConstantLoad(workload.High),
		}, MitigationBudget, 900 * time.Second},
		{"freq-boost", Tenant{
			App: app.Sirius(), Level: cmp.MidLevel, AdjustInterval: 25 * time.Second,
			Policy: func() core.Policy { return core.NewFreqBoost(cfg) },
			Source: ConstantLoad(workload.Medium),
		}, MitigationBudget, 900 * time.Second},
		{"saver", Tenant{
			App: app.Sirius(), Instances: []int{4, 2, 5}, Level: cmp.MaxLevel,
			AdjustInterval: 10 * time.Second, StatsWindow: 40 * time.Second,
			Policy: func() core.Policy { return core.NewPowerChiefSaver(2*time.Second, cfg) },
			Source: bursty,
		}, 0, 360 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := tc.tenant
			tn.Name, tn.Cores = tc.name, 16
			single, err := Run(Scenario{
				Name: tc.name, App: tn.App, Instances: tn.Instances, Level: tn.Level,
				Budget: tc.budget, Policy: tn.Policy, AdjustInterval: tn.AdjustInterval,
				StatsWindow: tn.StatsWindow, Source: tn.Source, Duration: tc.duration, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			multi, err := RunMulti(MultiScenario{
				Name: tc.name, Tenants: []Tenant{tn}, Budget: tc.budget, Duration: tc.duration, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := multi.Tenants[0]
			if got.Submitted != single.Submitted || got.Completed != single.Completed ||
				got.Latency.Mean() != single.Latency.Mean() || got.Latency.P99() != single.Latency.P99() ||
				!maps.Equal(got.Boosts, single.Boosts) {
				t.Fatalf("RunMulti %d/%d queries, mean %v, p99 %v, boosts %v; Run %d/%d, %v, %v, %v",
					got.Completed, got.Submitted, got.Latency.Mean(), got.Latency.P99(), got.Boosts,
					single.Completed, single.Submitted, single.Latency.Mean(), single.Latency.P99(), single.Boosts)
			}
			if single.Completed < 500 || len(single.Boosts) < 2 {
				t.Fatalf("scenario too quiet to compare: %d queries, boosts %v", single.Completed, single.Boosts)
			}
		})
	}
}
