// Package rpc implements the minimal RPC transport of the real-system
// prototype — the role Apache Thrift plays in the paper (§7.1): service
// stages and the Command Center run as separate processes and exchange
// typed messages over TCP. Like Thrift's, the protocol is compact and binary:
// a 4-byte big-endian length, a kind/version byte, the call id, the method
// (or the error and its fault code) and a tagged body, built in one pooled
// buffer and sent with one Write. A body is binary and reflection-free when
// its type carries an AppendWire / DecodeWire pair — the hot messages of
// internal/dist, internal/stats and internal/fleet do — and JSON otherwise;
// DESIGN.md §5j has the layout. Requests are pipelined and correlated by id,
// so one connection serves concurrent callers. There is one protocol version
// and no negotiation: a frame of any other kind fails the connection.
//
// Entry points: NewServer registers handlers by method name; Dial returns a
// Client whose Call enforces per-call deadlines and, with a RetryPolicy,
// retries transient transport failures with capped exponential backoff —
// server-side handler errors are never retried. These deadline/retry
// semantics are what lets internal/dist turn a hung stage into a counted
// error instead of a stuck query.
package rpc
