// Package harness assembles full experiments: it wires an application, a
// load source, a chip and a control policy onto the discrete-event engine,
// runs the scenario, and collects the metrics the paper's evaluation reports
// — end-to-end average and 99th-percentile latency, power draw over time,
// and the runtime behaviour (instance counts and frequencies) behind the
// figures.
//
// One component (chip.go) places an application on an engine it does not
// own: chip, pipeline, view, aggregator, policy and completion tap. Run
// places one and adds its loop, sampler and hooks; RunMulti places one per
// tenant under a chip-level budget domain and adds the arbiter and churn.
//
// The evaluation is one table (table.go, figures.go): every result file
// cmd/experiments writes under results/ is a Row, the scenarios it needs
// named by Key — a comparable value of everything that shapes a run, its
// policy a replay registry name — and a writer from their results to its
// files. Evaluate runs the distinct keys of a set of rows once, through one
// RunAll (each scenario owns a private engine and rng, so the results are
// bit-identical to a sequential run).
//
// Entry points: Run executes one Scenario; Table, LookupRow and Evaluate
// reproduce the §8 experiments. EXPERIMENTS.md records the outputs against
// the paper's numbers.
package harness
