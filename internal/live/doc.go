// Package live is the real-time engine of the framework: the same
// multi-stage service model as the discrete-event simulator, but driven by
// goroutines in wall-clock time. Each service instance is a worker goroutine
// pinned to a modelled core; query "work" is executed as a sleep scaled by
// the core's DVFS level and the cluster's time scale, so a full experiment
// can run in compressed real time. The identical Command Center policies
// (internal/core) drive the cluster through the same interfaces they use on
// the simulator.
//
// The repro note in DESIGN.md applies here: Go's GC and scheduler add jitter
// that makes wall-clock runs non-deterministic — the live engine exists to
// demonstrate the framework operating as a real runtime (as in the paper's
// prototype), while the DES produces the reproducible figures.
//
// Entry points: NewCluster builds the running system from StageSpec values
// (Options.TimeScale compresses virtual work into wall time); Cluster.Submit
// injects a query and OnComplete delivers its latency records;
// Cluster.Clock hands controlplane.Start the cluster's compressed time, so
// a core.Policy drives the cluster through the shared control loop.
// internal/loadgen drives a Cluster as a benchmark target.
package live
