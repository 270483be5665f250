package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/core"
	"powerchief/internal/stage"
	"powerchief/internal/workload"
)

// Ablation studies for the design choices DESIGN.md calls out: the latency
// metric (Equation 1 vs the Table 1 historical metrics), instance withdraw,
// the split-clone refinement, the balance threshold, and the dispatch
// policy. Each driver holds everything else at the Table 2 setup and varies
// exactly one choice.

// AblationRow is one variant's outcome.
type AblationRow struct {
	Label    string
	Avg      float64 // average-latency improvement over baseline (×)
	P99      float64
	AvgPower float64 // watts
}

// AblationResult is one study.
type AblationResult struct {
	ID    string
	Title string
	Rows  []AblationRow
}

// runVariants executes the baseline once and every variant against the same
// arrival process.
func runVariants(id, title string, base Scenario, variants []struct {
	Label string
	Mut   func(*Scenario)
}) (*AblationResult, error) {
	baseSc := base
	baseSc.Name = id + "-baseline"
	baseSc.Policy = nil
	baseline, err := Run(baseSc)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{ID: id, Title: title}
	for _, v := range variants {
		sc := base
		sc.Name = id + "-" + v.Label
		v.Mut(&sc)
		res, err := Run(sc)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", id, v.Label, err)
		}
		avg, p99 := Improvement(baseline, res)
		out.Rows = append(out.Rows, AblationRow{
			Label: v.Label, Avg: avg, P99: p99, AvgPower: float64(res.AvgPower),
		})
	}
	return out, nil
}

// siriusHigh is the shared base scenario of the ablations.
func siriusHigh(seed int64) Scenario {
	return mitigationScenario(app.Sirius(), "ablation", workload.High, nil, seed)
}

// AblationMetric compares PowerChief driven by Equation 1 against the purely
// historical Table 1 metrics (§4.2's claim: history alone misidentifies the
// bottleneck under bursts).
func AblationMetric(seed int64) (*AblationResult, error) {
	mk := func(m core.Metric) func(*Scenario) {
		return func(sc *Scenario) {
			sc.Policy = func() core.Policy {
				cfg := core.DefaultConfig()
				cfg.Metric = m
				return core.NewPowerChief(cfg)
			}
		}
	}
	return runVariants("ablation-metric",
		"Bottleneck metric: Equation 1 vs Table 1 historical metrics (Sirius, high load)",
		siriusHigh(seed), []struct {
			Label string
			Mut   func(*Scenario)
		}{
			{"expected-delay (Eq.1)", mk(core.MetricExpectedDelay)},
			{"avg-processing", mk(core.MetricAvgProcessing)},
			{"avg-queuing", mk(core.MetricAvgQueuing)},
			{"avg-serving", mk(core.MetricAvgServing)},
		})
}

// AblationWithdraw isolates instance withdraw (§6.2) under the phased
// Figure 11 load, where the all-at-floor jam makes withdraw matter.
func AblationWithdraw(seed int64) (*AblationResult, error) {
	base := siriusHigh(seed)
	base.Source = func(capacity float64) workload.Source {
		return workload.Figure11Trace(workload.RateForUtilization(capacity, workload.High.Utilization()))
	}
	mk := func(interval time.Duration) func(*Scenario) {
		return func(sc *Scenario) {
			sc.Policy = func() core.Policy {
				cfg := core.DefaultConfig()
				cfg.WithdrawInterval = interval
				return core.NewPowerChief(cfg)
			}
		}
	}
	return runVariants("ablation-withdraw",
		"Instance withdraw on/off (Sirius, phased high load)",
		base, []struct {
			Label string
			Mut   func(*Scenario)
		}{
			{"withdraw-150s", mk(150 * time.Second)},
			{"withdraw-off", mk(0)},
		})
}

// AblationSplitClone isolates the split-clone refinement (DESIGN.md §5b) at
// medium load, where the literal algorithm deadlocks after an early
// frequency overshoot.
func AblationSplitClone(seed int64) (*AblationResult, error) {
	base := siriusHigh(seed)
	base.Source = ConstantLoad(workload.Medium)
	mk := func(disable bool) func(*Scenario) {
		return func(sc *Scenario) {
			sc.Policy = func() core.Policy {
				cfg := core.DefaultConfig()
				cfg.DisableSplitClone = disable
				return core.NewPowerChief(cfg)
			}
		}
	}
	return runVariants("ablation-splitclone",
		"Split-clone refinement on/off (Sirius, medium load)",
		base, []struct {
			Label string
			Mut   func(*Scenario)
		}{
			{"split-clone", mk(false)},
			{"literal-alg1", mk(true)},
		})
}

// AblationBalanceThreshold sweeps the oscillation guard of §8.1.
func AblationBalanceThreshold(seed int64) (*AblationResult, error) {
	mk := func(th time.Duration) func(*Scenario) {
		return func(sc *Scenario) {
			sc.Policy = func() core.Policy {
				cfg := core.DefaultConfig()
				cfg.BalanceThreshold = th
				return core.NewPowerChief(cfg)
			}
		}
	}
	return runVariants("ablation-threshold",
		"Balance threshold sweep (Sirius, high load)",
		siriusHigh(seed), []struct {
			Label string
			Mut   func(*Scenario)
		}{
			{"0s", mk(0)},
			{"1s (Table 2)", mk(time.Second)},
			{"5s", mk(5 * time.Second)},
		})
}

// AblationDispatcher compares the stage dispatch policies under PowerChief.
func AblationDispatcher(seed int64) (*AblationResult, error) {
	base := siriusHigh(seed)
	mk := func(d func() stage.Dispatcher) func(*Scenario) {
		return func(sc *Scenario) {
			sc.Dispatcher = d
			sc.Policy = func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) }
		}
	}
	return runVariants("ablation-dispatcher",
		"Dispatch policy under PowerChief (Sirius, high load)",
		base, []struct {
			Label string
			Mut   func(*Scenario)
		}{
			{"join-shortest-queue", mk(func() stage.Dispatcher { return stage.JoinShortestQueue{} })},
			{"round-robin", mk(func() stage.Dispatcher { return &stage.RoundRobin{} })},
			{"least-expected-delay", mk(func() stage.Dispatcher { return stage.LeastExpectedDelay{} })},
		})
}

// WriteAblation renders a study as a text table.
func WriteAblation(w io.Writer, a *AblationResult) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", a.ID, a.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tavg improvement\tp99 improvement\tavg power")
	for _, r := range a.Rows {
		fmt.Fprintf(tw, "%s\t%.1fx\t%.1fx\t%.2fW\n", r.Label, r.Avg, r.P99, r.AvgPower)
	}
	return tw.Flush()
}

// TailRow is one policy's latency distribution.
type TailRow struct {
	Policy                        string
	P50, P90, P95, P99, P999, Max time.Duration
}

// TailResult is the tail-latency analysis the paper lists as future work
// ("analyze the tail latency behavior under the power constraint in more
// depth", §10).
type TailResult struct {
	Rows []TailRow
}

// TailAnalysis measures the full end-to-end latency distribution of every
// policy under high load and the power constraint.
func TailAnalysis(seed int64) (*TailResult, error) {
	out := &TailResult{}
	policies := append([]struct {
		Label string
		New   func() core.Policy
	}{{"Baseline", func() core.Policy { return core.Static{} }}}, mitigationPolicies()...)
	for _, p := range policies {
		res, err := Run(mitigationScenario(app.Sirius(), "tail-"+p.Label, workload.High, p.New, seed))
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, TailRow{
			Policy: p.Label,
			P50:    res.Latency.Percentile(0.50),
			P90:    res.Latency.Percentile(0.90),
			P95:    res.Latency.Percentile(0.95),
			P99:    res.Latency.Percentile(0.99),
			P999:   res.Latency.Percentile(0.999),
			Max:    res.Latency.Max(),
		})
	}
	return out, nil
}

// WriteTail renders the tail analysis.
func WriteTail(w io.Writer, t *TailResult) error {
	if _, err := fmt.Fprintln(w, "== tail: end-to-end latency distribution (Sirius, high load, 13.56W) =="); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tp50\tp90\tp95\tp99\tp99.9\tmax")
	rnd := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%v\t%v\n",
			r.Policy, rnd(r.P50), rnd(r.P90), rnd(r.P95), rnd(r.P99), rnd(r.P999), rnd(r.Max))
	}
	return tw.Flush()
}
