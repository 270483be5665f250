// Package dist implements the distributed real-system prototype (§7 of the
// paper): each processing stage runs as its own process hosting a pool of
// service instances, and a Command Center process dispatches queries through
// the stages over RPC, collects the query-carried latency statistics, and
// drives the control policy — DVFS, instance boosting and withdraw — against
// the remote stages, all under a global power budget it owns.
//
// The transport is internal/rpc (the Thrift stand-in): one binary frame per
// call, and the per-query and per-tick bodies — ProcessArgs, ProcessReply,
// StatsReply and the stats.Delta they carry — hand-encoded in wire.go, so a
// stage.process or stage.stats call never touches encoding/json; the rare
// control methods keep JSON bodies (DESIGN.md §5j). Stage services use the
// live engine with a single stage each, so the service model is the same one
// the simulator and the in-process live cluster run.
//
// Entry points: NewStageService hosts one stage (cmd/stagesvc wraps it);
// NewCenter connects to the stage addresses and exposes Submit for queries
// plus the core.System view for policies. The runtime is fault-tolerant:
// RPC deadlines and retries bound every call, unhealthy stages are
// quarantined and their power redistributed, and Submit degrades to
// counting errors rather than hanging — ChaosProxy exists to prove those
// paths in tests. See DESIGN.md for the failure model.
//
// Statistics cross the stage→center boundary one way (DESIGN.md §5j): every
// stage service folds its completions locally and ships a stats.Delta per
// batch — on the ProcessReply that trips the flush, and on every StatsReply.
// CenterOptions.IngestBatch / IngestInterval are the batch sizes, sent by
// MethodIngest. Full records travel only as the query tracer's side channel
// (ProcessArgs.Trace) and never reach the aggregator.
package dist
