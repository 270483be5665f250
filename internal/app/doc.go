// Package app defines the multi-stage applications the paper evaluates —
// Sirius (ASR→IMM→QA, Figure 8), NLP/Senna (POS→PSG→SRL, Figure 9) and Web
// Search (leaf fan-out → aggregation) — as stage work models: per-stage
// service-demand distributions plus per-service frequency speedup profiles.
//
// The real Sirius/Senna/Nutch binaries are substituted by synthetic demand
// distributions (see DESIGN.md): PowerChief observes only queuing/serving
// times and queue lengths, so lognormal demands with service-specific
// medians, tail spreads and memory-boundness exercise the identical control
// paths. Demands are expressed at the reference (lowest) frequency; the
// roofline profile maps them to serving time at any DVFS level.
//
// Entry points: Sirius, NLP and WebSearch build the three evaluated
// applications, ByName resolves one from a CLI flag. App.Specs turns an App
// into stage.Spec values for any engine; App.DrawWork draws one query's work
// matrix for the generators in internal/workload and internal/loadgen, and
// App.DrawWorkInto makes the same draws into the matrix of a recycled query.
// See ARCHITECTURE.md for where applications sit in the overall query path.
package app
