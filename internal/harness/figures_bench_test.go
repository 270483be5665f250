package harness

// Benchmarks regenerating the table's rows, reporting the reproduced values
// as custom metrics so `go test -bench` output doubles as the experiment
// record:
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/harness
//
// Each iteration evaluates the row once on the deterministic discrete-event
// engine; absolute numbers are recorded in EXPERIMENTS.md against the
// paper's.

import (
	"fmt"
	"testing"
)

// BenchmarkFigure2 regenerates the single-stage boosting sweep (Figure 2):
// normalized Sirius latency when boosting only ASR / IMM / QA under the same
// 13.56 W budget. Reported metric: normalized latency of the optimal
// decision (instance-boosting QA; the paper reports >40% reduction, i.e.
// < 0.6).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		norm := figure2Norms(rowRuns(b, "2", 7))
		b.ReportMetric(norm["Inst-boost QA only"], "norm-instQA")
		b.ReportMetric(norm["Inst-boost IMM only"], "norm-instIMM")
	}
}

// benchImprovement reports the average and p99 improvement of each bar
// labelled by a key of bars, per load.
func benchImprovement(b *testing.B, f improvement, row string, seed int64, metrics map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for load, g := range bars(f, rowRuns(b, row, seed)) {
			for label, metric := range metrics {
				b.ReportMetric(g[label].Avg, load+"-"+metric+"-avg-x")
				b.ReportMetric(g[label].P99, load+"-"+metric+"-p99-x")
			}
		}
	}
}

// BenchmarkFigure4 regenerates the freq-vs-inst boosting comparison
// (Figure 4) at low and high load (paper: low 1.46×/1.20×, high
// 1.82×/25.11×).
func BenchmarkFigure4(b *testing.B) {
	benchImprovement(b, fig4, "4", 11, map[string]string{"Freq-Boosting": "freq", "Inst-Boosting": "inst"})
}

// BenchmarkFigure10 regenerates the Sirius latency-improvement figure
// (paper: PowerChief 20.3× avg / 13.3× p99 on average; 32.8×/19.5× at high
// load).
func BenchmarkFigure10(b *testing.B) {
	benchImprovement(b, fig10, "10", 7, map[string]string{"PowerChief": "pc"})
}

// BenchmarkFigure12 regenerates the NLP latency-improvement figure (paper:
// 32.4× avg / 19.4× p99 on average; 52.2×/28.4× at high load).
func BenchmarkFigure12(b *testing.B) {
	benchImprovement(b, fig12, "12", 7, map[string]string{"PowerChief": "pc"})
}

// BenchmarkFigure11 regenerates the runtime-behaviour traces (Figure 11).
// Reported metric: the peak QA instance count PowerChief reaches (the paper
// shows up to five).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := rowRuns(b, "11", 5)
		maxQA := 0.0
		for _, p := range runs[len(runs)-1].Trace.Get("instances:QA").Points {
			maxQA = max(maxQA, p.Value)
		}
		b.ReportMetric(maxQA, "peak-QA-instances")
	}
}

// benchQoS reports a power-saving experiment's fractions (Figures 13/14).
func benchQoS(b *testing.B, f qosFigure, row string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runs := rowRuns(b, row, 9) // baseline, pegasus, powerchief
		lat, _ := qosFraction(runs[2], f.qos)
		b.ReportMetric(1-powerFraction(runs[1]), "pegasus-saved")
		b.ReportMetric(1-powerFraction(runs[2]), "pc-saved")
		b.ReportMetric(lat, "pc-lat/qos")
	}
}

// BenchmarkFigure13 regenerates the Sirius QoS power-saving comparison
// (paper: PowerChief saves 25% vs Pegasus 2% over the baseline).
func BenchmarkFigure13(b *testing.B) { benchQoS(b, fig13, "13") }

// BenchmarkFigure14 regenerates the Web Search QoS power-saving comparison
// (paper: PowerChief saves 43% vs Pegasus 10%).
func BenchmarkFigure14(b *testing.B) { benchQoS(b, fig14, "14") }

// benchAblation evaluates study id at seed and reports the average
// improvement of each variant whose label starts with a key of metrics.
func benchAblation(b *testing.B, id string, seed int64, metrics map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, rows := study(b, id, seed)
		for prefix, metric := range metrics {
			if r, ok := rowOf(rows, prefix); ok {
				b.ReportMetric(r.Avg, metric)
			}
		}
	}
}

// BenchmarkAblationMetric isolates the bottleneck metric: Equation 1
// (history + realtime queue length) against the purely historical Table 1
// metrics. The serving-only PowerChief never acts: its spread stays under
// the balance threshold.
func BenchmarkAblationMetric(b *testing.B) {
	benchAblation(b, "ablation-metric", 13, map[string]string{
		"expected-delay": "eq1-x", "avg-processing": "hist-x", "avg-serving": "serving-x",
	})
}

// BenchmarkAblationWithdraw isolates instance withdraw under the phased
// Figure 11 load.
func BenchmarkAblationWithdraw(b *testing.B) {
	benchAblation(b, "ablation-withdraw", 5, map[string]string{"withdraw-150s": "withdraw-x", "withdraw-off": "no-withdraw-x"})
}

// BenchmarkAblationSplitClone isolates the split-clone refinement at medium
// load (the literal Algorithm 1 deadlocks after an early overshoot).
func BenchmarkAblationSplitClone(b *testing.B) {
	benchAblation(b, "ablation-splitclone", 7, map[string]string{"split-clone": "split-x", "literal-alg1": "literal-x"})
}

// BenchmarkAblationBalanceThreshold sweeps the §8.1 oscillation guard.
func BenchmarkAblationBalanceThreshold(b *testing.B) {
	benchAblation(b, "ablation-threshold", 7, map[string]string{"0s": "th0-x", "1s": "th1-x", "5s": "th5-x"})
}

// BenchmarkAblationDispatcher compares stage dispatch policies under
// PowerChief.
func BenchmarkAblationDispatcher(b *testing.B) {
	benchAblation(b, "ablation-dispatcher", 7, map[string]string{
		"join-shortest-queue": "jsq-x", "round-robin": "rr-x", "least-expected-delay": "led-x",
	})
}

// BenchmarkBudgetSweep reports the tight-budget (7 W) and Table 2 (13.56 W)
// PowerChief-vs-baseline gaps of the budget-sensitivity study.
func BenchmarkBudgetSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := rowRuns(b, "sweep", 7)
		for j, k := range budgetSweep.keys(7) {
			if k.Policy == "powerchief" && (k.Budget == 7 || k.Budget == 13.56) {
				b.ReportMetric(float64(runs[j-1].Latency.Mean())/float64(runs[j].Latency.Mean()), fmt.Sprintf("%gW-x", float64(k.Budget)))
			}
		}
	}
}
