// Package config embodies the paper's experiment setups — Table 2 (latency
// mitigation under the power constraint) and Table 3 (power conservation
// under a QoS target) — as structured, validated, JSON-serializable
// configurations, so experiments can be described in files and reproduced
// exactly.
//
// Entry points: MitigationSetup and QoSSetup construct the two canonical
// table setups; Load and Read parse an Experiment from a file or stream,
// rejecting unknown fields so typos fail loudly. Experiment.Validate checks
// the values; the app and policy names are resolved, and so checked, by
// harness.FromConfig.
package config
