package harness

import (
	"fmt"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/workload"
)

// This file holds one driver per table and figure of the paper's evaluation
// (§8). Each driver builds the scenarios of that experiment, runs them on
// the discrete-event engine, and returns a typed result that render.go can
// print and EXPERIMENTS.md records against the paper's numbers.

// MitigationBudget is the Table 2 power budget: one service instance at the
// medial 1.8 GHz per Sirius/NLP stage.
const MitigationBudget = cmp.Watts(13.56)

// Bar is one bar of a latency-improvement figure.
type Bar struct {
	Label string
	Avg   float64 // average-latency improvement over baseline (×)
	P99   float64 // tail-latency improvement over baseline (×)
}

// BarGroup is a labelled group of bars (one load level of Figures 10/12).
type BarGroup struct {
	Label string
	Bars  []Bar
}

// Figure is a rendered experiment: groups of improvement bars.
type Figure struct {
	ID     string
	Title  string
	Groups []BarGroup
}

// ConstantLoad builds a Source factory pinning utilization of the reference
// capacity.
func ConstantLoad(level workload.Level) func(float64) workload.Source {
	return func(capacity float64) workload.Source {
		return workload.Constant(workload.RateForUtilization(capacity, level.Utilization()))
	}
}

// mitigationScenario is the Table 2 setup: stage-agnostic initial allocation
// (one instance per stage at 1.8 GHz), 13.56 W budget, 25 s adjust interval.
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

// mitigationPolicies are the boosting techniques compared in Figures 10/12.
func mitigationPolicies() []struct {
	Label string
	New   func() core.Policy
} {
	cfg := core.DefaultConfig()
	return []struct {
		Label string
		New   func() core.Policy
	}{
		{"Freq-Boosting", func() core.Policy { return core.NewFreqBoost(cfg) }},
		{"Inst-Boosting", func() core.Policy { return core.NewInstBoost(cfg) }},
		{"PowerChief", func() core.Policy { return core.NewPowerChief(cfg) }},
	}
}

// improvementFigure runs baseline + policies at each load level. All
// (load, policy) scenarios execute concurrently via RunAll; each scenario
// seeds its own engine, so the bars are identical to a sequential run.
func improvementFigure(id, title string, a app.App, loads []workload.Level, seed int64) (*Figure, error) {
	policies := mitigationPolicies()
	perLoad := 1 + len(policies) // baseline first, then the policies
	var scs []Scenario
	for _, load := range loads {
		scs = append(scs, mitigationScenario(a, fmt.Sprintf("%s-%s-baseline", a.Name, load), load, nil, seed))
		for _, p := range policies {
			scs = append(scs, mitigationScenario(a, fmt.Sprintf("%s-%s-%s", a.Name, load, p.Label), load, p.New, seed))
		}
	}
	results, err := RunAll(scs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: title}
	for li, load := range loads {
		base := results[li*perLoad]
		group := BarGroup{Label: fmt.Sprintf("%s load", load)}
		for pi, p := range policies {
			avg, p99 := Improvement(base, results[li*perLoad+1+pi])
			group.Bars = append(group.Bars, Bar{Label: p.Label, Avg: avg, P99: p99})
		}
		fig.Groups = append(fig.Groups, group)
	}
	return fig, nil
}

// Figure10 reproduces the Sirius latency-improvement figure: Freq-Boosting,
// Inst-Boosting and PowerChief vs the stage-agnostic baseline under low,
// medium and high load.
func Figure10(seed int64) (*Figure, error) {
	return improvementFigure("figure10",
		"Sirius latency improvement vs stage-agnostic baseline (Table 2 setup)",
		app.Sirius(), []workload.Level{workload.Low, workload.Medium, workload.High}, seed)
}

// Figure12 reproduces the NLP latency-improvement figure.
func Figure12(seed int64) (*Figure, error) {
	return improvementFigure("figure12",
		"NLP latency improvement vs stage-agnostic baseline (Table 2 setup)",
		app.NLP(), []workload.Level{workload.Low, workload.Medium, workload.High}, seed)
}

// Figure4 reproduces the motivating comparison: frequency vs instance
// boosting for Sirius under low and high load — frequency wins under low
// load (serving-dominated), instance boosting wins under high load
// (queuing-dominated).
func Figure4(seed int64) (*Figure, error) {
	cfg := core.DefaultConfig()
	loads := []workload.Level{workload.Low, workload.High}
	policies := []struct {
		Label string
		New   func() core.Policy
	}{
		{"Freq-Boosting", func() core.Policy { return core.NewFreqBoost(cfg) }},
		{"Inst-Boosting", func() core.Policy { return core.NewInstBoost(cfg) }},
	}
	perLoad := 1 + len(policies)
	var scs []Scenario
	for _, load := range loads {
		scs = append(scs, mitigationScenario(app.Sirius(), fmt.Sprintf("fig4-%s-baseline", load), load, nil, seed))
		for _, p := range policies {
			scs = append(scs, mitigationScenario(app.Sirius(), fmt.Sprintf("fig4-%s-%s", load, p.Label), load, p.New, seed))
		}
	}
	results, err := RunAll(scs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "figure4", Title: "Freq vs Inst boosting for Sirius (improvement over baseline)"}
	for li, load := range loads {
		base := results[li*perLoad]
		group := BarGroup{Label: fmt.Sprintf("%s load", load)}
		for pi, p := range policies {
			avg, p99 := Improvement(base, results[li*perLoad+1+pi])
			group.Bars = append(group.Bars, Bar{Label: p.Label, Avg: avg, P99: p99})
		}
		fig.Groups = append(fig.Groups, group)
	}
	return fig, nil
}

// Figure2Row is one static boosting configuration of Figure 2.
type Figure2Row struct {
	Label      string
	Normalized float64 // avg latency normalized to the stage-agnostic baseline
}

// Figure2Result is the full Figure 2 sweep.
type Figure2Result struct {
	Rows []Figure2Row
}

// Figure2 reproduces the motivating experiment: boosting a single Sirius
// stage with either technique under the same 13.56 W budget. The
// configurations are static — donor stages run at 1.6 GHz, the boosted stage
// spends the freed power on frequency (2.1 GHz) or a second instance
// (2×1.5 GHz). The shape to reproduce: boosting the dominant QA stage cuts
// latency sharply, boosting the light IMM stage hurts.
func Figure2(seed int64) (*Figure2Result, error) {
	a := app.Sirius()
	const donorLevel = cmp.Level(4)  // 1.6 GHz
	const freqBoosted = cmp.Level(9) // 2.1 GHz
	const instBoosted = cmp.Level(3) // 1.5 GHz ×2 instances

	scenario := func(name string, instances []int, levels []cmp.Level) Scenario {
		return Scenario{
			Name:        name,
			App:         a,
			Instances:   instances,
			Level:       cmp.MidLevel, // overridden per-stage below via StageLevels
			StageLevels: levels,
			Budget:      MitigationBudget,
			Source:      ConstantLoad(workload.Medium),
			// Load anchored to the shared baseline configuration.
			RefInstances: []int{1, 1, 1},
			RefLevel:     cmp.MidLevel,
			Duration:     900 * time.Second,
			Seed:         seed,
		}
	}

	// Baseline first, then the six static boosting configurations — all
	// run concurrently.
	scs := []Scenario{scenario("fig2-baseline", []int{1, 1, 1}, nil)}
	labels := []string{"Baseline (stage-agnostic)"}
	stages := []string{"ASR", "IMM", "QA"}
	for i, stageName := range stages {
		levels := []cmp.Level{donorLevel, donorLevel, donorLevel}
		levels[i] = freqBoosted
		scs = append(scs, scenario("fig2-freq-"+stageName, []int{1, 1, 1}, levels))
		labels = append(labels, fmt.Sprintf("Freq-boost %s only", stageName))

		instances := []int{1, 1, 1}
		instances[i] = 2
		levels = []cmp.Level{donorLevel, donorLevel, donorLevel}
		levels[i] = instBoosted
		scs = append(scs, scenario("fig2-inst-"+stageName, instances, levels))
		labels = append(labels, fmt.Sprintf("Inst-boost %s only", stageName))
	}
	results, err := RunAll(scs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	out := &Figure2Result{}
	for i, res := range results {
		out.Rows = append(out.Rows, Figure2Row{
			Label:      labels[i],
			Normalized: float64(res.Latency.Mean()) / float64(base.Latency.Mean()),
		})
	}
	return out, nil
}

// Figure11Result bundles the runtime-behaviour traces of the three policies
// under the time-varying high load.
type Figure11Result struct {
	Runs []*Result // freq-boost, inst-boost, powerchief
}

// Figure11 reproduces the runtime-behaviour experiment: Sirius under the
// phased high-load trace for 900 s; the traces carry the per-instance
// frequencies and per-stage instance counts over time.
func Figure11(seed int64) (*Figure11Result, error) {
	var scs []Scenario
	for _, p := range mitigationPolicies() {
		sc := mitigationScenario(app.Sirius(), "fig11-"+p.Label, workload.High, p.New, seed)
		sc.Source = func(capacity float64) workload.Source {
			return workload.Figure11Trace(workload.RateForUtilization(capacity, workload.High.Utilization()))
		}
		scs = append(scs, sc)
	}
	results, err := RunAll(scs)
	if err != nil {
		return nil, err
	}
	return &Figure11Result{Runs: results}, nil
}

// QoSRun is one policy's outcome in the power-saving experiments.
type QoSRun struct {
	Policy        string
	QoSFraction   float64 // mean windowed latency / QoS target
	PowerFraction float64 // mean power / peak power
	Violations    int     // samples above the QoS target
	Result        *Result
}

// QoSResult is one application's Figure 13/14 outcome.
type QoSResult struct {
	ID    string
	Title string
	QoS   time.Duration
	Runs  []QoSRun
}

// qosExperiment runs baseline / Pegasus / PowerChief on an over-provisioned
// configuration (Table 3) under a bursty load and reports QoS and power
// fractions. util is the base utilization of the over-provisioned capacity;
// bursts reach 1.7× base (capped at 0.85).
func qosExperiment(id, title string, a app.App, instances []int, qos time.Duration, adjust time.Duration, util float64, duration time.Duration, seed int64) (*QoSResult, error) {
	cfg := core.DefaultConfig()
	policies := []struct {
		Label string
		New   func() core.Policy
	}{
		{"baseline", nil},
		{"pegasus", func() core.Policy { return core.NewPegasus(qos) }},
		{"powerchief", func() core.Policy { return core.NewPowerChiefSaver(qos, cfg) }},
	}
	var scs []Scenario
	for _, p := range policies {
		scs = append(scs, Scenario{
			Name:           id + "-" + p.Label,
			App:            a,
			Instances:      instances,
			Level:          cmp.MaxLevel, // Table 3: all services at maximum frequency
			Budget:         0,            // peak: derived from the over-provisioned config
			Policy:         p.New,
			AdjustInterval: adjust,
			StatsWindow:    4 * adjust,
			Source: func(capacity float64) workload.Source {
				base := workload.RateForUtilization(capacity, util)
				burst := base * 2.2
				if max := capacity * 0.95; burst > max {
					burst = max
				}
				period := duration / 9
				tr, err := workload.BurstTrace(base, burst, period, period/4, duration)
				if err != nil {
					panic(err)
				}
				return tr
			},
			Duration: duration,
			Seed:     seed,
		})
	}
	results, err := RunAll(scs)
	if err != nil {
		return nil, err
	}
	out := &QoSResult{ID: id, Title: title, QoS: qos}
	for i, p := range policies {
		res := results[i]
		run := QoSRun{Policy: p.Label, Result: res}
		run.PowerFraction = res.Trace.Get("power").Mean() / float64(res.PeakPower)
		if lat := res.Trace.Get("latency"); lat != nil {
			run.QoSFraction = lat.Mean() / qos.Seconds()
			for _, pt := range lat.Points {
				if pt.Value > qos.Seconds() {
					run.Violations++
				}
			}
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// Figure13 reproduces the Sirius power-saving comparison (Table 3 setup:
// 4 ASR + 2 IMM + 5 QA at 2.4 GHz, 2 s QoS, 10 s adjust interval).
func Figure13(seed int64) (*QoSResult, error) {
	return qosExperiment("figure13",
		"Sirius power saving while meeting the 2s QoS target",
		app.Sirius(), []int{4, 2, 5}, 2*time.Second, 10*time.Second, 0.40, 900*time.Second, seed)
}

// Figure14 reproduces the Web Search power-saving comparison (Table 3
// setup: 10 leaves + 1 aggregator at 2.4 GHz, 250 ms QoS, 2 s adjust
// interval).
func Figure14(seed int64) (*QoSResult, error) {
	return qosExperiment("figure14",
		"Web Search power saving while meeting the 250ms QoS target",
		app.WebSearch(), []int{10, 1}, 250*time.Millisecond, 2*time.Second, 0.30, 200*time.Second, seed)
}

// Headline aggregates the paper's abstract numbers: mean improvement across
// loads for Sirius and NLP, and the power saved vs Pegasus for Sirius and
// Web Search.
type Headline struct {
	SiriusAvgX, SiriusP99X float64
	NLPAvgX, NLPP99X       float64
	SiriusPowerSaved       float64 // PowerChief saving minus Pegasus saving
	SearchPowerSaved       float64
}

// ComputeHeadline derives the headline from already-run figures.
func ComputeHeadline(f10, f12 *Figure, f13, f14 *QoSResult) Headline {
	meanOf := func(f *Figure, label string) (avg, p99 float64) {
		n := 0
		for _, g := range f.Groups {
			for _, b := range g.Bars {
				if b.Label == label {
					avg += b.Avg
					p99 += b.P99
					n++
				}
			}
		}
		if n > 0 {
			avg /= float64(n)
			p99 /= float64(n)
		}
		return avg, p99
	}
	var h Headline
	h.SiriusAvgX, h.SiriusP99X = meanOf(f10, "PowerChief")
	h.NLPAvgX, h.NLPP99X = meanOf(f12, "PowerChief")
	saving := func(q *QoSResult, policy string) float64 {
		for _, r := range q.Runs {
			if r.Policy == policy {
				return 1 - r.PowerFraction
			}
		}
		return 0
	}
	h.SiriusPowerSaved = saving(f13, "powerchief") - saving(f13, "pegasus")
	h.SearchPowerSaved = saving(f14, "powerchief") - saving(f14, "pegasus")
	return h
}
