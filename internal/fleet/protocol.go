package fleet

import (
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/stats"
)

// RPC method names of the fleet wire protocol. Like the fault wire codes,
// they are part of the protocol and must never be renamed.
const (
	// MethodNodeInfo returns the node's identity (NodeInfo).
	MethodNodeInfo = "node.info"
	// MethodNodeReport returns the node's current Report.
	MethodNodeReport = "node.report"
	// MethodNodeGrant delivers a Grant; stale epochs are rejected with
	// fault.ErrStaleEpoch.
	MethodNodeGrant = "node.grant"
)

// NodeInfo identifies a node service.
type NodeInfo struct {
	Node string `json:"node"`
}

// Report is one node's heartbeat answer: its bottleneck metric and local
// power accounting, tagged with the fencing epoch of the last grant it
// accepted. The coordinator ingests the metric only when the epoch matches
// its ledger — a mismatched report proves liveness but is otherwise fenced
// off (it predates a reclamation or the node restarted).
type Report struct {
	Node string `json:"node"`
	// Epoch echoes the last accepted grant's fencing epoch (0 before any
	// grant, or after a restart).
	Epoch uint64 `json:"epoch"`
	// Metric is the node's bottleneck metric: the Equation 1 expected delay
	// of its slowest stage, aggregated upward for the fleet to weight.
	Metric time.Duration `json:"metric"`
	// Draw and Budget are the node's local power accounting.
	Draw   cmp.Watts `json:"draw"`
	Budget cmp.Watts `json:"budget"`

	// Stages is the per-stage Equation 1 breakdown behind Metric, when the
	// node's backend exposes one — it lets the coordinator's arbiter weight
	// by marginal benefit (how far the bottleneck protrudes over the rest
	// of the pipeline) instead of absolute slowness. Nil from a scalar-only
	// backend.
	Stages []arbiter.StageMetric `json:"stages,omitempty"`

	// Ingest carries the node's delta-batched query statistics — everything
	// folded locally since the last heartbeat — when the node service has
	// ingest enabled. The heartbeat is the transport: shipping the batch
	// here costs zero extra RPCs and bounds staleness by the heartbeat
	// interval. Nil when ingest is off.
	Ingest *stats.Delta `json:"ingest,omitempty"`
}

// Grant re-assigns one node's power budget. Epoch is the coordinator's
// fencing epoch: strictly increasing across all grants to all nodes, so a
// node can reject a grant from a superseded term (Epoch below the last it
// accepted) and the coordinator can recognise — and fence — reports that
// predate a quarantine-time reclamation.
type Grant struct {
	Watts cmp.Watts `json:"watts"`
	Epoch uint64    `json:"epoch"`
}

// Transport is the coordinator's view of one node, however it is reached:
// over RPC (RPCNode), or in virtual time (SimNode). Report and Grant errors
// are failures of the exchange — the health state machine counts them toward
// quarantine.
type Transport interface {
	// Name identifies the node; it must be stable across reconnects.
	Name() string
	// Report fetches the node's heartbeat report.
	Report() (Report, error)
	// Grant delivers a budget grant.
	Grant(Grant) error
}
