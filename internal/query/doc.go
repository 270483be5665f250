// Package query implements the extended query data structure of the paper's
// service/query joint design (§4.1, Figure 6): as a query walks through the
// processing stages, every service instance appends a latency record
// (instance signature, queuing time, serving time) to the query itself. After
// the last stage the accumulated records are delivered to the Command Center,
// which aggregates them into per-instance latency statistics — no global
// clock synchronization, no kernel support.
//
// Entry points: New builds a query around its work matrix (one row per
// stage, one column per fan-out branch); Append accumulates a Record per
// visited instance; the record accessors are what core.Aggregator and the
// telemetry tracer consume downstream.
//
// Who owns a query. One from New belongs to whoever holds it, for good — the
// wall-clock engines, loadgen, workload.Replay and tests make theirs that way.
// One from a Pool belongs to the pool's owner (a workload.Generator, single-
// goroutine like the engine): Get hands it out, stage.System calls Release
// once the last completion callback has returned, and the next Get reuses the
// Query, its Records array and — refilled by the drawer — its Work matrix.
// Past that point nobody else may hold the query or either slice; Clone makes
// the copy a callback keeps. Release does nothing to a query from New and
// panics on one that is already back in its pool.
package query
