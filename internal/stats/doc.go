// Package stats provides the latency-statistics machinery of the Command
// Center: moving time windows over per-instance queuing/serving samples
// (§4.2 of the paper uses a moving window to evaluate the latency metric),
// streaming summaries with exact percentiles, utilization accounting, and
// time-series recorders for the runtime-behaviour figures.
//
// Entry points: Window is the §4.2 moving window (Striped shards one across
// lock stripes and merges on read — Percentiles answers a whole quantile
// grid from one merge); Summary keeps every
// sample for exact percentiles (experiment-scale); NewHistogram builds the
// log-bucketed histogram internal/loadgen records into (bounded memory at
// benchmark scale, quantile error set by the growth factor); TimeSeries
// captures the traces behind the figure CSVs; Improvement computes the
// baseline-over-policy ratios the evaluation tables report.
//
// Statistics cross a process boundary only as a Delta (DESIGN.md §5j): a
// DeltaAccumulator folds completions locally and flushes a versioned summary
// — per-instance histogram digests on the shared BinGrowth geometry — every
// N completions or T elapsed, whichever first; a DeltaReceiver books what
// arrives (frames, queries, flushes lost per source). The digests share
// BucketWindow's bin bounds, so folding one into a bucketed window
// (AddDigest/FoldDigest) is exact integer bin addition, equal to per-sample
// Adds at the flush timestamp; the exact Window refuses a digest.
package stats
