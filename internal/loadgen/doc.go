// Package loadgen is the high-throughput open-loop load generator behind
// cmd/powerbench: it drives any of the framework's engines at a controlled,
// saturating arrival rate and measures latency without coordinated omission.
//
// The core pieces:
//
//   - Schedule (ConstantRate, Poisson) fixes every operation's intended
//     start offset before the run begins, deterministically per seed, so the
//     arrival process can never be back-pressured by a slow target.
//   - Target abstracts what is being driven: LiveTarget (the in-process
//     goroutine engine), DESTarget (the discrete-event simulator, for
//     cross-validation — it replays the schedule in virtual time via
//     Preparer/SelfPacing), and DistTarget (the distributed runtime over
//     internal/rpc, whose deadline/retry client turns hung stages into
//     counted errors).
//   - Run shards issue across worker goroutines and records
//     intended-start-to-completion latency into internal/stats histograms;
//     the wait an operation spends queued behind a stalled target is charged
//     to its latency, never silently dropped. The send-time distribution is
//     kept alongside as a diagnostic of exactly the gap coordinated omission
//     would hide.
//   - Summarize/WriteTable produce the JSON and human digests, and
//     Options.Metrics streams per-run series into internal/telemetry so a
//     /metrics endpoint reflects an in-flight benchmark.
//   - Artifact is the one envelope every powerbench mode writes and Compare
//     the one gate over it (README.md, "Artifacts and the gate").
//
// See DESIGN.md §5e for why the generator is open-loop and what coordinated
// omission would do to the tails, and ARCHITECTURE.md for where the
// subsystem sits in the query path.
package loadgen
