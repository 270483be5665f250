// Package workload generates the open-loop query load that drives the
// experiments: Poisson arrivals at a configurable rate (the paper's load
// generator, §8.1), piecewise-constant rate traces for the time-varying
// runtime-behaviour experiments (Figure 11), and the three representative
// load levels (high, medium, low) defined relative to the baseline
// configuration's capacity.
//
// Entry points: Source yields inter-arrival gaps — Constant, Trace (see
// BurstTrace and Figure11Trace), Diurnal and Replay implement it; Level and
// RateForUtilization anchor "low/medium/high" to a configuration's measured
// capacity. Generator turns a Source into arrivals on a stage.System and
// owns the queries it submits: each comes out of the generator's query.Pool
// and returns to it when the system releases it after the last completion
// callback, so a run allocates as many queries as it ever has in flight.
// NewRefillingGenerator's drawer refills the recycled work matrix in place
// (app.App.DrawWorkInto); NewGenerator's draws a fresh one per arrival.
// Replay.Schedule submits one-shot query.New queries.
//
// This package feeds the simulation harness in virtual time;
// internal/loadgen is its wall-clock counterpart for benchmarking real
// engines, and DESIGN.md §5e contrasts the two.
package workload
