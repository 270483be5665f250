// Package wire is the handful of append and read primitives the hand-written
// binary codecs share: uvarint, zig-zag varint, length-prefixed string,
// float64 and bool appenders, and a bounds-checked Reader whose first bad
// field latches an error. internal/rpc frames with it; the hot message
// bodies (dist.ProcessArgs/ProcessReply/StatsReply, stats.Delta,
// fleet.Report/Grant) encode with it. The frame and body layouts are in
// DESIGN.md §5j.
package wire
