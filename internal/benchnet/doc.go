// Package benchnet turns the single-process powerbench driver into a
// distributed, self-terminating benchmark harness — the
// warp benchserver/benchclient shape on top of the framework's own RPC
// transport.
//
// A Coordinator speaks a versioned protocol (ProtoVersion) over
// internal/rpc to N Agents. It ships each agent the full run spec plus its
// stride shard: every agent materializes the identical global schedule and
// work-draw sequence and executes only the arrivals whose index matches its
// shard, so the union of what N agents execute is exactly the
// single-process op set. Agents start on a common wall-clock epoch, stream
// periodic progress deltas back, and ship a final loadgen.Summary carrying
// the serialized log-spaced latency histogram. The coordinator merges the
// agent digests exactly — bin counts add — into one cluster-wide CO-safe
// distribution, deriving the quantile block from the merged histogram.
//
// One warp idiom completes the loop: throughput auto-termination (AutoTerm;
// the run stops early once the last -autoterm.dur window's first- and
// second-half throughputs agree within -autoterm.pct). The merged summary is
// gated like every other powerbench artifact — loadgen.SummaryArtifact,
// loadgen.Compare; README.md, "Artifacts and the gate". Dist-target specs can
// size the stages' stat-delta batches (RunSpec.IngestBatch); the sizes are
// stamped into the summary's provenance, where a difference between baseline
// and candidate (different statistic-staleness bounds) shows as a warning.
package benchnet
