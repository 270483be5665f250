// Package harness assembles full experiments: it wires an application, a
// load source, a chip and a control policy onto the discrete-event engine,
// runs the scenario, and collects the metrics the paper's evaluation reports
// — end-to-end average and 99th-percentile latency, power draw over time,
// and the runtime behaviour (instance counts and frequencies) behind the
// figures. Every figure and table of the evaluation section has a driver in
// experiments.go built on this runner.
//
// One component (chip.go) places an application on an engine it does not
// own: chip, pipeline, view, aggregator, policy and completion tap. Run
// places one and adds its loop, sampler and hooks; RunMulti places one per
// tenant under a chip-level budget domain and adds the arbiter and churn.
//
// Entry points: Run executes one Scenario; RunAll fans a scenario list
// across goroutines (each scenario owns a private engine and rng, so the
// results are bit-identical to a sequential run); Figure2 through Figure14,
// TailAnalysis, the Ablation* drivers and BudgetSweep reproduce the §8
// experiments that cmd/experiments writes under results/. EXPERIMENTS.md
// records the outputs against the paper's numbers.
package harness
