// Package controlplane is the one control loop of the framework: the paper's
// Command Center cadence — adjust epochs, optional sample epochs, bounded
// outcome history, telemetry attachment and degraded-mode accounting — over
// a small Clock abstraction, so the discrete-event simulator, the in-process
// live cluster and the distributed runtime all drive policies through the
// same code instead of four hand-rolled loops.
//
// The pieces compose as decision → actuation → cadence:
//
//   - core.Tick runs one interval: a pure Planner.Plan (an ActionPlan),
//     then a validated, audited, rollback-capable Executor.Apply;
//   - an Adjuster runs one interval against a backend (core.System +
//     Aggregator for DES/live, dist.Center for the distributed runtime);
//   - the Loop schedules Adjuster calls on a Clock and keeps the history.
//
// Determinism contract: on a SimClock the Loop registers the adjust epoch
// before the sample epoch, so same-timestamp events fire adjust-first —
// the order the DES harness has always used, which the golden figures pin.
package controlplane
