// Package config describes single-application experiments — the paper's
// Table 2 setup (latency mitigation under the power constraint) and
// variations of it — as structured, validated, JSON-serializable
// configurations, so experiments can be described in files and reproduced
// exactly. (Table 3, the power-saving setup of Figures 13/14, is the
// figure13 and figure14 rows of harness.Table.)
//
// Entry points: MitigationSetup constructs the Table 2 setup; Load and Read
// parse an Experiment from a file or stream,
// rejecting unknown fields so typos fail loudly. Experiment.Validate checks
// the values; the app and policy names are resolved, and so checked, by
// harness.FromConfig.
package config
