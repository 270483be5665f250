package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/fleet"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// The rows of the evaluation table: one per table and figure of §8, plus
// the budget sweep, the tail analysis, the ablations, the decision timeline,
// the headline and the fleet record. EXPERIMENTS.md records their outputs
// against the paper's numbers.

// MitigationBudget is the Table 2 power budget: one service instance at the
// medial 1.8 GHz per Sirius/NLP stage.
const MitigationBudget = cmp.Watts(13.56)

// Table is the evaluation, one row per -fig value of cmd/experiments.
func Table() []Row {
	return []Row{
		{Name: "2", Keys: figure2Keys, Write: writeFigure2},
		{Name: "4", Keys: fig4.keys, Write: fig4.write},
		{Name: "10", Keys: fig10.keys, Write: fig10.write},
		{Name: "11", Keys: figure11Keys, Write: writeFigure11},
		{Name: "12", Keys: fig12.keys, Write: fig12.write},
		{Name: "13", Keys: fig13.keys, Write: fig13.write},
		{Name: "14", Keys: fig14.keys, Write: fig14.write},
		{Name: "sweep", Keys: budgetSweep.keys, Write: budgetSweep.write},
		{Name: "tail", Keys: tailKeys, Write: writeTail},
		{Name: "ablations", Keys: ablationKeys, Write: writeAblations},
		{Name: "decisions", Keys: decisionKeys, Write: writeDecisions},
		{Name: "headline", Of: []string{"10", "12", "13", "14"}, Write: writeHeadline},
		{Name: "fleet", Write: writeFleet},
	}
}

// variant is a labelled registry policy.
type variant struct{ label, policy string }

// boosters are the boosting techniques compared in Figures 10–12.
var boosters = []variant{{"Freq-Boosting", "freq-boost"}, {"Inst-Boosting", "inst-boost"}, {"PowerChief", "powerchief"}}

// improvement is a latency-improvement figure: per load, the stage-agnostic
// baseline and then each policy, Table 2 setup.
type improvement struct {
	id, title string
	app       app.App
	loads     []workload.Level
	policies  []variant
}

var (
	// fig4 is the motivating comparison: frequency boosting wins under low
	// load (serving-dominated), instance boosting under high load
	// (queuing-dominated). Its runs are Figure 10's.
	fig4 = improvement{"figure4", "Freq vs Inst boosting for Sirius (improvement over baseline)",
		app.Sirius(), []workload.Level{workload.Low, workload.High}, boosters[:2]}
	fig10 = improvement{"figure10", "Sirius latency improvement vs stage-agnostic baseline (Table 2 setup)",
		app.Sirius(), []workload.Level{workload.Low, workload.Medium, workload.High}, boosters}
	fig12 = improvement{"figure12", "NLP latency improvement vs stage-agnostic baseline (Table 2 setup)",
		app.NLP(), []workload.Level{workload.Low, workload.Medium, workload.High}, boosters}
)

func (f improvement) keys(seed int64) []Key {
	var keys []Key
	for _, load := range f.loads {
		keys = append(keys, table2(f.app, load, "baseline", seed))
		for _, p := range f.policies {
			keys = append(keys, table2(f.app, load, p.policy, seed))
		}
	}
	return keys
}

// write renders the figure as a text table, one row per policy per load —
// the textual equivalent of the paper's bar charts.
func (f improvement) write(runs []*Result, file FileFunc) error {
	lines := []string{"load\tpolicy\tavg latency\t99th latency"}
	for _, load := range f.loads {
		for i, p := range f.policies {
			avg, p99 := Improvement(runs[0], runs[1+i])
			lines = append(lines, fmt.Sprintf("%s load\t%s\t%.1fx\t%.1fx", load, p.label, avg, p99))
		}
		runs = runs[1+len(f.policies):]
	}
	return file(f.id+".txt", table(f.id+": "+f.title, lines))
}

// mean is policy's improvement averaged over the figure's loads.
func (f improvement) mean(runs []*Result, policy string) (avg, p99 float64) {
	i := slices.IndexFunc(f.policies, func(v variant) bool { return v.policy == policy })
	for range f.loads {
		a, p := Improvement(runs[0], runs[1+i])
		avg, p99 = avg+a, p99+p
		runs = runs[1+len(f.policies):]
	}
	return avg / float64(len(f.loads)), p99 / float64(len(f.loads))
}

// figure2Keys is the motivating experiment: boosting a single Sirius stage
// with either technique under the same 13.56 W budget. The configurations
// are static — donor stages run at 1.6 GHz, the boosted stage spends the
// freed power on frequency (2.1 GHz) or a second instance (2×1.5 GHz) — and
// the load is anchored to the baseline configuration. The baseline comes
// first, then per stage the frequency and the instance boost.
func figure2Keys(seed int64) []Key {
	const donor, freqBoosted, instBoosted = cmp.Level(4), cmp.Level(9), cmp.Level(3)
	a := app.Sirius()
	base := table2(a, workload.Medium, "baseline", seed)
	base.RefInstances, base.RefLevel = base.Instances, cmp.MidLevel
	keys := []Key{base}
	for i := range a.Stages {
		freq := base
		for j := range a.Stages {
			freq.Levels[j] = donor
		}
		inst := freq
		freq.Levels[i] = freqBoosted
		inst.Instances[i], inst.Levels[i] = 2, instBoosted
		keys = append(keys, freq, inst)
	}
	return keys
}

// writeFigure2 normalizes each configuration's mean latency to the
// baseline's. The shape to reproduce: boosting the dominant QA stage cuts
// latency sharply, boosting the light IMM stage hurts.
func writeFigure2(runs []*Result, file FileFunc) error {
	labels := []string{"Baseline (stage-agnostic)"}
	for _, st := range app.Sirius().Stages {
		labels = append(labels, "Freq-boost "+st.Name+" only", "Inst-boost "+st.Name+" only")
	}
	lines := []string{"configuration\tnormalized latency"}
	for i, r := range runs {
		lines = append(lines, fmt.Sprintf("%s\t%.2f", labels[i], float64(r.Latency.Mean())/float64(runs[0].Latency.Mean())))
	}
	return file("figure2.txt", table("figure2: Normalized Sirius latency when boosting one stage (13.56W budget)", lines))
}

// figure11Keys is the runtime-behaviour experiment: Sirius under the phased
// high-load trace; the traces carry the per-instance frequencies and
// per-stage instance counts over time.
func figure11Keys(seed int64) []Key {
	var keys []Key
	for _, p := range boosters {
		k := table2(app.Sirius(), workload.High, p.policy, seed)
		k.Load = LoadPhased
		keys = append(keys, k)
	}
	return keys
}

func writeFigure11(runs []*Result, file FileFunc) error {
	for i, r := range runs {
		if err := file("figure11-"+r.Policy+".csv", trace("fig11-"+boosters[i].label, r)); err != nil {
			return err
		}
	}
	return nil
}

// qosFigure is a power-saving experiment (Table 3): baseline, Pegasus and
// PowerChief on an over-provisioned configuration at the maximum frequency,
// budget derived from it, under a bursty load around util.
type qosFigure struct {
	id, title   string
	app         app.App
	instances   []int
	qos, adjust time.Duration
	util        float64
	horizon     time.Duration
}

var (
	// fig13: 4 ASR + 2 IMM + 5 QA at 2.4 GHz, 2 s QoS, 10 s adjust interval.
	fig13 = qosFigure{"figure13", "Sirius power saving while meeting the 2s QoS target",
		app.Sirius(), []int{4, 2, 5}, 2 * time.Second, 10 * time.Second, 0.40, 900 * time.Second}
	// fig14: 10 leaves + 1 aggregator at 2.4 GHz, 250 ms QoS, 2 s interval.
	fig14 = qosFigure{"figure14", "Web Search power saving while meeting the 250ms QoS target",
		app.WebSearch(), []int{10, 1}, 250 * time.Millisecond, 2 * time.Second, 0.30, 200 * time.Second}
	qosPolicies = []variant{{"baseline", "baseline"}, {"pegasus", "pegasus"}, {"powerchief", "saver"}}
)

func (f qosFigure) keys(seed int64) []Key {
	var keys []Key
	for _, p := range qosPolicies {
		k := Key{
			App: f.app.Name, Policy: p.policy, Config: core.DefaultConfig(), QoS: f.qos,
			Load: LoadBurst, Util: f.util, AdjustInterval: f.adjust, StatsWindow: 4 * f.adjust,
			Horizon: f.horizon, Seed: seed,
		}
		copy(k.Instances[:], f.instances)
		for i := range f.app.Stages {
			k.Levels[i] = cmp.MaxLevel
		}
		keys = append(keys, k)
	}
	return keys
}

// write renders the summary table and each policy's time series.
func (f qosFigure) write(runs []*Result, file FileFunc) error {
	lines := []string{"policy\tlatency/QoS\tpower/peak\tpower saved\tQoS violations\tinstances withdrawn"}
	for i, r := range runs {
		lat, violations := qosFraction(r, f.qos)
		power := powerFraction(r)
		lines = append(lines, fmt.Sprintf("%s\t%.2f\t%.2f\t%.0f%%\t%d\t%d",
			qosPolicies[i].label, lat, power, (1-power)*100, violations, r.Withdrawn))
	}
	if err := file(f.id+".txt", table(f.id+": "+f.title, lines)); err != nil {
		return err
	}
	for i, r := range runs {
		name := f.id + "-" + qosPolicies[i].label
		if err := file(name+".csv", trace(name, r)); err != nil {
			return err
		}
	}
	return nil
}

// powerFraction is r's mean sampled draw over its peak.
func powerFraction(r *Result) float64 { return r.Trace.Get("power").Mean() / float64(r.PeakPower) }

// qosFraction is r's mean sampled window latency over qos, and the number
// of samples above qos.
func qosFraction(r *Result, qos time.Duration) (frac float64, violations int) {
	lat := r.Trace.Get("latency")
	if lat == nil {
		return 0, 0
	}
	for _, pt := range lat.Points {
		if pt.Value > qos.Seconds() {
			violations++
		}
	}
	return lat.Mean() / qos.Seconds(), violations
}

// powerSaved is PowerChief's power saving less Pegasus's, as fractions of
// peak, from a power-saving figure's runs.
func powerSaved(runs []*Result) float64 {
	return (1 - powerFraction(runs[2])) - (1 - powerFraction(runs[1]))
}

// sweep studies latency as a function of the power budget — the
// sensitivity question behind the paper's fixed 13.56 W choice: baseline
// and PowerChief at each budget, every stage at the highest uniform level
// the budget affords. Budgets below the minimum feasible configuration
// (every stage at the DVFS floor) are skipped.
type sweep struct {
	app     app.App
	load    workload.Level
	budgets []cmp.Watts
}

var budgetSweep = sweep{app.Sirius(), workload.High, []cmp.Watts{7, 9, 11, 13.56, 17, 22, 28}}

func (s sweep) keys(seed int64) []Key {
	model := cmp.DefaultModel()
	n := cmp.Watts(len(s.app.Stages))
	var keys []Key
	for _, b := range s.budgets {
		lvl, ok := cmp.HighestAffordable(model, b/n)
		if b < n*model.MinPower() || !ok {
			continue
		}
		for _, p := range []string{"baseline", "powerchief"} {
			k := table2(s.app, s.load, p, seed)
			k.Budget = b
			for i := range s.app.Stages {
				k.Levels[i] = lvl
			}
			keys = append(keys, k)
		}
	}
	return keys
}

func (s sweep) write(runs []*Result, file FileFunc) error {
	if len(runs) == 0 {
		return errors.New("harness: no feasible budget in the sweep")
	}
	lines := []string{"budget\tpolicy\tavg latency\tp99 latency\tavg power"}
	for i, k := range s.keys(0) {
		l := runs[i].Latency
		lines = append(lines, fmt.Sprintf("%.2fW\t%s\t%v\t%v\t%.2fW", float64(k.Budget), k.Policy,
			l.Mean().Round(time.Millisecond), l.P99().Round(time.Millisecond), float64(runs[i].AvgPower)))
	}
	return file("sweep.txt", table(fmt.Sprintf("sweep: latency vs power budget (%s, %s load)", s.app.Name, s.load), lines))
}

// tailPolicies are the tail-latency analysis the paper lists as future work
// ("analyze the tail latency behavior under the power constraint in more
// depth", §10): each policy's end-to-end distribution under high load and
// the power constraint.
var tailPolicies = slices.Concat([]variant{{"Baseline", "baseline"}}, boosters)

func tailKeys(seed int64) []Key {
	var keys []Key
	for _, p := range tailPolicies {
		keys = append(keys, table2(app.Sirius(), workload.High, p.policy, seed))
	}
	return keys
}

func writeTail(runs []*Result, file FileFunc) error {
	lines := []string{"policy\tp50\tp90\tp95\tp99\tp99.9\tmax"}
	for i, r := range runs {
		line := tailPolicies[i].label
		for _, p := range []float64{0.50, 0.90, 0.95, 0.99, 0.999} {
			line += fmt.Sprintf("\t%v", r.Latency.Percentile(p).Round(time.Millisecond))
		}
		lines = append(lines, fmt.Sprintf("%s\t%v", line, r.Latency.Max().Round(time.Millisecond)))
	}
	return file("tail.txt", table("tail: end-to-end latency distribution (Sirius, high load, 13.56W)", lines))
}

// ablation isolates one design choice DESIGN.md calls out, holding the rest
// at the Table 2 setup for Sirius: the baseline, then PowerChief with each
// variant's change, under the same arrivals.
type ablation struct {
	id, title string
	load      workload.Level
	phased    bool
	variants  []tweak
}

// tweak is a labelled change to the PowerChief key.
type tweak struct {
	label string
	set   func(*Key)
}

var ablations = []ablation{
	// Equation 1 against the purely historical Table 1 metrics (§4.2's
	// claim: history alone misidentifies the bottleneck under bursts).
	{"ablation-metric", "Bottleneck metric: Equation 1 vs Table 1 historical metrics (Sirius, high load)", workload.High, false, []tweak{
		{"expected-delay (Eq.1)", func(k *Key) { k.Config.Metric = core.MetricExpectedDelay }},
		{"avg-processing", func(k *Key) { k.Config.Metric = core.MetricAvgProcessing }},
		{"avg-queuing", func(k *Key) { k.Config.Metric = core.MetricAvgQueuing }},
		{"avg-serving", func(k *Key) { k.Config.Metric = core.MetricAvgServing }},
	}},
	// Instance withdraw (§6.2) under the phased Figure 11 load, where the
	// all-at-floor jam makes withdraw matter.
	{"ablation-withdraw", "Instance withdraw on/off (Sirius, phased high load)", workload.High, true, []tweak{
		{"withdraw-150s", func(k *Key) { k.Config.WithdrawInterval = 150 * time.Second }},
		{"withdraw-off", func(k *Key) { k.Config.WithdrawInterval = 0 }},
	}},
	// The split-clone refinement (DESIGN.md §5b) at medium load, where the
	// literal algorithm deadlocks after an early frequency overshoot.
	{"ablation-splitclone", "Split-clone refinement on/off (Sirius, medium load)", workload.Medium, false, []tweak{
		{"split-clone", func(k *Key) { k.Config.DisableSplitClone = false }},
		{"literal-alg1", func(k *Key) { k.Config.DisableSplitClone = true }},
	}},
	// The oscillation guard of §8.1.
	{"ablation-threshold", "Balance threshold sweep (Sirius, high load)", workload.High, false, []tweak{
		{"0s", func(k *Key) { k.Config.BalanceThreshold = 0 }},
		{"1s (Table 2)", func(k *Key) { k.Config.BalanceThreshold = time.Second }},
		{"5s", func(k *Key) { k.Config.BalanceThreshold = 5 * time.Second }},
	}},
	// The stage dispatch policy.
	{"ablation-dispatcher", "Dispatch policy under PowerChief (Sirius, high load)", workload.High, false, []tweak{
		{"join-shortest-queue", func(k *Key) { k.Dispatcher = "join-shortest-queue" }},
		{"round-robin", func(k *Key) { k.Dispatcher = "round-robin" }},
		{"least-expected-delay", func(k *Key) { k.Dispatcher = "least-expected-delay" }},
	}},
}

func (a ablation) keys(seed int64) []Key {
	base := table2(app.Sirius(), a.load, "baseline", seed)
	if a.phased {
		base.Load = LoadPhased
	}
	keys := []Key{base}
	for _, v := range a.variants {
		k := base
		k.Policy = "powerchief"
		v.set(&k)
		keys = append(keys, k)
	}
	return keys
}

func ablationKeys(seed int64) []Key {
	var keys []Key
	for _, a := range ablations {
		keys = append(keys, a.keys(seed)...)
	}
	return keys
}

func writeAblations(runs []*Result, file FileFunc) error {
	return file("ablations.txt", func(w io.Writer) error {
		for _, a := range ablations {
			lines := []string{"variant\tavg improvement\tp99 improvement\tavg power"}
			for i, v := range a.variants {
				avg, p99 := Improvement(runs[0], runs[1+i])
				lines = append(lines, fmt.Sprintf("%s\t%.1fx\t%.1fx\t%.2fW", v.label, avg, p99, float64(runs[1+i].AvgPower)))
			}
			if err := table(a.id+": "+a.title, append(lines, ""))(w); err != nil {
				return err
			}
			runs = runs[1+len(a.variants):]
		}
		return nil
	})
}

// decisionKeys is the Sirius high-load PowerChief run whose recorded
// decision frames render the Command Center's audit timeline — every
// bottleneck identification with its Equation 1 inputs, the Equation 2/3
// estimates behind each boost, recycle donor lists and withdraws: Figure
// 11's companion from the controller's point of view.
func decisionKeys(seed int64) []Key {
	return []Key{table2(app.Sirius(), workload.High, "powerchief", seed)}
}

func writeDecisions(runs []*Result, file FileFunc) error {
	return file("decisions.txt", func(w io.Writer) error {
		return telemetry.WriteDecisions(w, runs[0].Decisions.Trace().Events())
	})
}

// writeHeadline renders the abstract's aggregate numbers, paper against
// measured, from the runs of Figures 10, 12, 13 and 14 in that order: the
// mean PowerChief improvement across loads for Sirius and NLP, and the
// power PowerChief saves over Pegasus for Sirius and Web Search.
func writeHeadline(runs []*Result, file FileFunc) error {
	take := func(n int) []*Result {
		part := runs[:n]
		runs = runs[n:]
		return part
	}
	sAvg, sP99 := fig10.mean(take(len(fig10.keys(0))), "powerchief")
	nAvg, nP99 := fig12.mean(take(len(fig12.keys(0))), "powerchief")
	sSaved, wSaved := powerSaved(take(len(qosPolicies))), powerSaved(runs)
	return file("headline.txt", table("headline: paper abstract numbers (paper → measured)", []string{
		fmt.Sprintf("Sirius avg improvement\t20.3x →\t%.1fx", sAvg),
		fmt.Sprintf("Sirius 99%% improvement\t13.3x →\t%.1fx", sP99),
		fmt.Sprintf("NLP avg improvement\t32.4x →\t%.1fx", nAvg),
		fmt.Sprintf("NLP 99%% improvement\t19.4x →\t%.1fx", nP99),
		fmt.Sprintf("Sirius power saved vs Pegasus\t23%% →\t%.0f%%", sSaved*100),
		fmt.Sprintf("Web Search power saved vs Pegasus\t33%% →\t%.0f%%", wSaved*100),
	}))
}

// writeFleet records the fleet-federation benchmark: a 100-node DES fleet
// under one coordinator, 10 nodes partitioned mid-run. It runs no scenario
// of the table; the record pins the robustness invariants (no budget
// violation, no stranded watts, convergence and recovery within epochs of
// the fault) and is byte-deterministic.
func writeFleet(_ []*Result, file FileFunc) error {
	res, err := fleet.RunFleetSim(fleet.DefaultSimParams())
	if err != nil {
		return err
	}
	return file("BENCH_fleet.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	})
}
