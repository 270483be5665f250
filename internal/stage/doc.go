// Package stage implements the multi-stage service model of the paper
// (Figure 3): an application is a pipeline of stages, each stage holds a
// dynamic pool of service instances, each instance runs exclusively on one
// physical core at its own DVFS level and maintains its own queue to smooth
// load bursts. Stages can be organized as Pipeline (each query is served by
// one instance of the stage) or FanOut (the query fans to every instance and
// joins on the slowest — the Web Search leaf organization).
//
// The package provides the actuation surface that PowerChief's Command
// Center drives: per-instance DVFS, instance boosting (clone + work
// stealing), and instance withdraw (drain + load redirection).
//
// Serving a query allocates nothing here. An Instance serves one query at a
// time, so it embeds the one completion event it can have outstanding and
// arms it per query (sim.Engine.Arm; the ownership contract is in package
// sim's documentation): nobody else arms that event, SetLevel reschedules it
// in place, and an Instance is therefore handled by pointer only. The
// in-flight query is held by value, the FIFO is a slice with a head index
// that zeroes each slot as it is served and moves its live region to the
// front only when the array is full and at least half served, and a Stage
// admits against a cached list of its non-draining instances that Launch,
// Withdraw and remove invalidate (Active returns a copy). Clone's tail-half
// steal and Withdraw's redirect move live entries only, with their original
// enqueue times.
//
// A query leaves the package at one place: System.advance, past the last
// stage, runs the completion callbacks and then calls the query's Release —
// the single release point of a recycled query (package query; a no-op for
// one from query.New). Callbacks run synchronously and keep nothing of the
// query, its Records or its Work past their return; Query.Clone is the copy
// to keep. Until then only the queues and serving slots it sits in, or its
// hop event, refer to a query — never an instance that has served it.
//
// Entry points: NewSystem assembles stages from Spec values on a sim.Engine
// and a cmp.Chip; System.Submit injects a query and OnComplete reports it
// with its latency records. Dispatcher implementations (JoinShortestQueue,
// RoundRobin, LeastExpectedDelay) choose the instance per arrival — the
// ablation in results/ablations.txt compares them. This package is the
// virtual-time twin of internal/live; ARCHITECTURE.md shows both behind the
// same policy interfaces.
package stage
