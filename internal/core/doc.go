// Package core implements PowerChief's Command Center (Figure 5): the
// bottleneck identifier (§4), the boosting decision engine (§5, Algorithm 1)
// and the power reallocator (§6, Algorithm 2), together with the boosting
// and power-conservation policies the paper evaluates against each other —
// stage-agnostic static allocation, pure frequency boosting, pure instance
// boosting, adaptive PowerChief, a Pegasus-style QoS power saver and the
// stage-aware PowerChief power saver.
//
// The decision code acts through the narrow Instance/StageControl/System
// interfaces below, so the identical policies drive the discrete-event
// engine, the live goroutine engine and the distributed RPC prototype.
//
// Entry points: NewAggregator turns query-carried latency records into the
// windowed per-instance statistics of §4.2 — record by record (Ingest) or
// as batched stats.Delta summaries shipped across a process boundary
// (IngestDelta, exact for bucketed windows; DESIGN.md §5j); NewPowerChief, NewFreqBoost,
// NewInstBoost, NewPegasus and NewPowerChiefSaver construct the policies. A
// Planner's Plan is the decision, a pure function of the System and
// StatsReader it is handed; Tick is the one control tick — capture, plan,
// apply, audit, record — and every Policy's Adjust is a call to it.
// EstimateInstBoost and EstimateFreqBoost are the paper's Equation 2/3
// speedup predictions that Algorithm 1 compares. ARCHITECTURE.md diagrams
// how the Command Center sits between the engines and the chip model, and
// what one control tick runs and how often (DESIGN.md §5n); BenchmarkRank,
// BenchmarkCaptureSnapshot and BenchmarkPowerChiefTick measure it here.
package core
