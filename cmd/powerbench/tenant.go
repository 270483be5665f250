package main

// powerbench tenant — the multi-tenant arbitration benchmark and its CI
// gate. One deterministic two-app DES scenario (harness.BenchTenantScenario)
// is run twice under the same seed: once with the initial split frozen
// (static halving) and once with a cross-app arbiter re-granting per-tenant
// budgets each epoch. The command prints both runs, reports the combined-p99
// improvement, and writes the pair as an artifact that `powerbench cmp` gates
// against the checked-in results/BENCH_multitenant.json.

import (
	"flag"
	"fmt"
	"os"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/loadgen"
	"powerchief/internal/stats"
)

// tenantBound is the relative drift the deterministic two-app scenario may
// show on its combined latencies and improvement factors.
const tenantBound = 0.20

// tenantParams pins everything that must match for two multi-tenant
// artifacts to be comparable. Alpha is set only when the arbiter is fairness,
// the one strategy that reads it.
type tenantParams struct {
	Scenario    string   `json:"scenario"`
	Seed        int64    `json:"seed"`
	Arbiter     string   `json:"arbiter"`
	Alpha       float64  `json:"alpha,omitempty"`
	BudgetWatts float64  `json:"budget_watts"`
	Tenants     []string `json:"tenants"`
}

// tenantTenant is one tenant's slice of a run.
type tenantTenant struct {
	Name           string  `json:"name"`
	Policy         string  `json:"policy"`
	QoSNS          int64   `json:"qos_ns"`
	Submitted      uint64  `json:"submitted"`
	Completed      uint64  `json:"completed"`
	MeanNS         int64   `json:"mean_ns"`
	P99NS          int64   `json:"p99_ns"`
	InitialGrantW  float64 `json:"initial_grant_watts"`
	FinalGrantW    float64 `json:"final_grant_watts"`
	AvgGrantW      float64 `json:"avg_grant_watts"`
	AvgPowerW      float64 `json:"avg_power_watts"`
	BoostDecisions int     `json:"boost_decisions"`
}

// tenantRunRecord is one mode's (static or arbitrated) result.
type tenantRunRecord struct {
	Arbiter         string         `json:"arbiter"`
	CombinedCount   int            `json:"combined_count"`
	CombinedMeanNS  int64          `json:"combined_mean_ns"`
	CombinedP50NS   int64          `json:"combined_p50_ns"`
	CombinedP99NS   int64          `json:"combined_p99_ns"`
	ArbiterEpochs   uint64         `json:"arbiter_epochs"`
	Violations      int            `json:"violations"`
	MaxGrantedWatts float64        `json:"max_granted_watts"`
	Tenants         []tenantTenant `json:"tenants"`
}

// tenantDetail is the artifact's detail: both runs, tenant by tenant.
type tenantDetail struct {
	Static     tenantRunRecord `json:"static"`
	Arbitrated tenantRunRecord `json:"arbitrated"`
	// Improvement is static over arbitrated: >1 means arbitration won.
	ImprovementMeanX float64 `json:"improvement_mean_x"`
	ImprovementP99X  float64 `json:"improvement_p99_x"`
}

// runTenant implements `powerbench tenant`. Exit codes: 0 success, 1 a run
// failed or the artifact lists a problem (a budget-hierarchy violation,
// arbitration not beating the static split), 2 unknown strategy.
func runTenant(args []string) int {
	fs := flag.NewFlagSet("powerbench tenant", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "scenario seed (both runs share it)")
	policy := fs.String("arbiter", "proportional", "arbitration strategy: proportional or fairness")
	alpha := fs.Float64("alpha", 2, "fairness strategy exponent (arbiter=fairness)")
	jsonOut := fs.String("json", "", "write the paired artifact here (\"-\" for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: powerbench tenant [flags]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	strategy, err := tenantStrategy(*policy, *alpha)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench tenant:", err)
		return 2
	}

	static := harness.BenchTenantScenario(*seed)
	staticRes, err := harness.RunMulti(static)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench tenant: static run:", err)
		return 1
	}
	arbScenario := harness.BenchTenantScenario(*seed)
	arbScenario.Arbiter = func() core.Policy { return arbiter.New(strategy) }
	arbRes, err := harness.RunMulti(arbScenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench tenant: arbitrated run:", err)
		return 1
	}

	params := tenantParams{
		Scenario:    static.Name,
		Seed:        *seed,
		Arbiter:     *policy,
		BudgetWatts: float64(arbRes.Budget),
		Tenants:     tenantNames(arbRes),
	}
	if *policy == "fairness" {
		params.Alpha = *alpha
	}
	d := tenantDetail{
		Static:           recordRun(staticRes),
		Arbitrated:       recordRun(arbRes),
		ImprovementMeanX: stats.Improvement(staticRes.Combined.Mean(), arbRes.Combined.Mean()),
		ImprovementP99X:  stats.Improvement(staticRes.Combined.P99(), arbRes.Combined.P99()),
	}
	printTenantRun("static-split", d.Static)
	printTenantRun(*policy, d.Arbitrated)
	fmt.Printf("arbitration vs static halving: combined mean %.2fx, combined p99 %.2fx (budget %.1f W, %d arbiter epochs)\n",
		d.ImprovementMeanX, d.ImprovementP99X, params.BudgetWatts, d.Arbitrated.ArbiterEpochs)
	return emit("powerbench tenant", *jsonOut, tenantArtifact(params, d))
}

// tenantArtifact flattens the two runs into the envelope. Beating the static
// split on combined p99 is the scenario's reason to exist, so not doing so is
// a problem, as is any epoch that broke the budget hierarchy.
func tenantArtifact(params tenantParams, d tenantDetail) loadgen.Artifact {
	metric := func(name string, v float64, unit, better string) loadgen.Metric {
		return loadgen.Metric{Name: name, Value: v, Unit: unit, Better: better, Bound: tenantBound}
	}
	art := loadgen.Artifact{
		Kind:       "tenant",
		Provenance: loadgen.CaptureProvenance(),
		Params:     params,
		Detail:     d,
		Metrics: []loadgen.Metric{
			metric("improvement_mean_x", d.ImprovementMeanX, "x", "higher"),
			metric("improvement_p99_x", d.ImprovementP99X, "x", "higher"),
		},
	}
	for _, run := range []struct {
		mode string
		rec  tenantRunRecord
	}{{"static", d.Static}, {"arbitrated", d.Arbitrated}} {
		art.Metrics = append(art.Metrics,
			metric(run.mode+".combined_mean_ns", float64(run.rec.CombinedMeanNS), "ns", "lower"),
			metric(run.mode+".combined_p99_ns", float64(run.rec.CombinedP99NS), "ns", "lower"))
		if run.rec.Violations != 0 {
			art.Problems = append(art.Problems, fmt.Sprintf("%d budget-hierarchy violations in the %s run (Σ child grants exceeded the root budget)", run.rec.Violations, run.mode))
		}
	}
	if d.ImprovementP99X <= 1 {
		art.Problems = append(art.Problems, fmt.Sprintf("arbitration did not beat static halving on combined p99 (%.3fx)", d.ImprovementP99X))
	}
	return art
}

// tenantStrategy maps the flag value to an arbitration strategy.
func tenantStrategy(name string, alpha float64) (arbiter.Strategy, error) {
	switch name {
	case "proportional":
		return arbiter.Proportional{}, nil
	case "fairness":
		return arbiter.Fairness{Alpha: alpha}, nil
	default:
		return nil, fmt.Errorf("unknown arbiter strategy %q (want proportional or fairness)", name)
	}
}

// tenantNames lists the run's tenants in order.
func tenantNames(res *harness.MultiResult) []string {
	out := make([]string, len(res.Tenants))
	for i, t := range res.Tenants {
		out[i] = t.Name
	}
	return out
}

// recordRun flattens a MultiResult into the artifact schema.
func recordRun(res *harness.MultiResult) tenantRunRecord {
	rec := tenantRunRecord{
		Arbiter:         res.Arbiter,
		CombinedCount:   res.Combined.Count(),
		CombinedMeanNS:  res.Combined.Mean().Nanoseconds(),
		CombinedP50NS:   res.Combined.P50().Nanoseconds(),
		CombinedP99NS:   res.Combined.P99().Nanoseconds(),
		ArbiterEpochs:   res.ArbiterEpochs,
		Violations:      res.Violations,
		MaxGrantedWatts: float64(res.MaxGranted),
	}
	for _, t := range res.Tenants {
		boosts := 0
		for _, n := range t.Boosts {
			boosts += n
		}
		rec.Tenants = append(rec.Tenants, tenantTenant{
			Name:           t.Name,
			Policy:         t.Policy,
			QoSNS:          t.QoS.Nanoseconds(),
			Submitted:      t.Submitted,
			Completed:      t.Completed,
			MeanNS:         t.Latency.Mean().Nanoseconds(),
			P99NS:          t.Latency.P99().Nanoseconds(),
			InitialGrantW:  float64(t.InitialGrant),
			FinalGrantW:    float64(t.FinalGrant),
			AvgGrantW:      float64(t.AvgGrant),
			AvgPowerW:      float64(t.AvgPower),
			BoostDecisions: boosts,
		})
	}
	return rec
}

// printTenantRun renders one mode as a table row set.
func printTenantRun(label string, rec tenantRunRecord) {
	fmt.Printf("%-14s combined: %6d queries  mean %-12v p99 %-12v epochs %d  max Σgrants %.1f W\n",
		label, rec.CombinedCount, time.Duration(rec.CombinedMeanNS), time.Duration(rec.CombinedP99NS),
		rec.ArbiterEpochs, rec.MaxGrantedWatts)
	for _, t := range rec.Tenants {
		fmt.Printf("  %-10s qos %-8v p99 %-12v done %5d/%-5d grant %5.1f→%5.1f W (avg %5.1f)  power %5.1f W  boosts %d\n",
			t.Name, time.Duration(t.QoSNS), time.Duration(t.P99NS), t.Completed, t.Submitted,
			t.InitialGrantW, t.FinalGrantW, t.AvgGrantW, t.AvgPowerW, t.BoostDecisions)
	}
}
