// Package telemetry is the observability layer of the framework: a
// per-query tracer that materializes the service/query joint design's
// latency records (§4.1, Figure 6) into span trees, a structured audit log
// of every Command Center decision — bottleneck identification, the
// Equation 2/3 boosting estimates, power recycling, withdraw (each rendered
// from a tick's core.DecisionRecord and carrying its tick seq) and the
// distributed runtime's quarantine transitions — and a metrics registry with
// Prometheus-text and JSON exporters served over HTTP.
//
// The package depends only on the query structure and the standard library,
// so every engine (discrete-event, live goroutine, distributed RPC) and the
// Command Center itself can feed it without import cycles.
//
// Everything is disabled-by-default and nil-safe: a nil *AuditLog or nil
// *Tracer accepts every call as a cheap no-op, so instrumented hot paths pay
// a single pointer test when observability is off. BenchmarkTelemetryDisabled
// in the root package pins this property.
//
// Entry points: NewRegistry plus Counter/Gauge (and their Func variants for
// sampling live state); Handler mounts /metrics, /decisions and /trace on
// one http.Handler and Serve hosts it. Registration is last-write-wins, so
// a re-run benchmark simply replaces its series — internal/loadgen relies
// on that to publish in-flight run metrics.
package telemetry
