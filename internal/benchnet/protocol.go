package benchnet

import (
	"fmt"
	"time"

	"powerchief/internal/loadgen"
	"powerchief/internal/stats"
)

// ProtoVersion is the benchnet wire protocol version. Hello is the
// handshake: a coordinator refuses agents speaking another version, so a
// mixed deployment fails loudly at connect time instead of corrupting a
// merge.
const ProtoVersion = 1

// RPC method names, all served by an Agent.
const (
	MethodHello    = "bench.hello"
	MethodStart    = "bench.start"
	MethodProgress = "bench.progress"
	MethodStop     = "bench.stop"
	MethodResult   = "bench.result"
)

// RunSpec is the full description of one benchmark run — everything an
// agent needs to rebuild the target and the schedule. The coordinator ships
// the same spec to every agent, varying only the shard coordinates.
type RunSpec struct {
	Proto int `json:"proto"`

	// Target names the engine: live, des or dist.
	Target string `json:"target"`
	// App is the application layout (sirius, nlp, websearch, ...).
	App string `json:"app"`
	// Instances holds per-stage instance counts (empty: one each).
	Instances []int `json:"instances,omitempty"`
	// Level is the initial DVFS level for every instance.
	Level int `json:"level"`
	// Cores is the chip size.
	Cores int `json:"cores"`
	// BudgetW is the power budget in watts (0: derived from the layout).
	BudgetW float64 `json:"budget_w,omitempty"`
	// TimeScale compresses wall time for live/dist targets.
	TimeScale float64 `json:"timescale,omitempty"`
	// Addrs, for the dist target, are the stage services to connect to.
	// The coordinator self-hosts one set and puts its addresses here, so
	// all agents drive the same deployment — the warp topology, where load
	// generators share the system under test.
	Addrs []string `json:"addrs,omitempty"`

	// Arrivals is the schedule name: constant, poisson or ramp:<from>:<to>.
	Arrivals string `json:"arrivals"`
	// RateQPS is the global intended rate (the full, unsharded schedule).
	RateQPS float64 `json:"rate_qps"`
	// Duration is the generation horizon.
	Duration time.Duration `json:"duration_ns"`
	// Warmup trims ops intended before this offset from the distributions.
	Warmup time.Duration `json:"warmup_ns,omitempty"`
	// Workers is the per-agent issuing goroutine count.
	Workers int `json:"workers"`
	// Seed drives the schedule and the work draws.
	Seed int64 `json:"seed"`
	// HistGrowth is the latency histogram growth factor (0: loadgen's
	// default). All agents must share it or the digests cannot merge.
	HistGrowth float64 `json:"hist_growth,omitempty"`

	// IngestBatch, for the dist target, is how many completions every stage
	// service batches per stats.Delta frame (0: the stats default). Part of
	// the spec so every agent's Center sets the same sizes and the summary
	// provenance records them.
	IngestBatch int `json:"ingest_batch,omitempty"`
	// IngestInterval bounds delta staleness: a partial batch is flushed once
	// it is this old (0: the stats default).
	IngestInterval time.Duration `json:"ingest_interval_ns,omitempty"`

	// ShardIndex/ShardCount are this agent's stride coordinates, assigned
	// by the coordinator.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count,omitempty"`
}

// Validate checks the spec fields the agent cannot default.
func (s RunSpec) Validate() error {
	if s.Proto != ProtoVersion {
		return fmt.Errorf("benchnet: spec proto %d, this build speaks %d", s.Proto, ProtoVersion)
	}
	if s.Target == "" || s.App == "" || s.Arrivals == "" {
		return fmt.Errorf("benchnet: spec needs target, app and arrivals")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("benchnet: spec needs a positive duration")
	}
	return nil
}

// StampProvenance records the spec's ingest batching configuration on a
// summary's provenance, so `powerbench cmp` can warn when a baseline and a
// candidate ran with different statistic-staleness bounds. A no-op unless
// the spec sets a batch size on a dist target: zero is the default on both
// sides of a comparison.
func (s RunSpec) StampProvenance(sum *loadgen.Summary) {
	if s.Target != "dist" || s.IngestBatch <= 0 {
		return
	}
	if sum.Provenance == nil {
		sum.Provenance = &loadgen.Provenance{}
	}
	sum.Provenance.IngestBatch = s.IngestBatch
	interval := s.IngestInterval
	if interval <= 0 {
		interval = stats.DefaultDeltaInterval
	}
	sum.Provenance.IngestIntervalMS = float64(interval) / float64(time.Millisecond)
}

// HelloArgs opens the handshake.
type HelloArgs struct {
	Proto int `json:"proto"`
}

// HelloReply answers with the agent's protocol version and provenance, so
// the coordinator can refuse version skew and stamp the merged summary.
type HelloReply struct {
	Proto      int                `json:"proto"`
	Provenance loadgen.Provenance `json:"provenance"`
}

// StartArgs arms one run: the spec plus the common start epoch. Every agent
// sleeps until the epoch before releasing its first arrival, so the shards
// interleave on the shared target exactly as the global schedule dictates
// (hosts are assumed clock-synchronized to well under a typical latency —
// loopback and NTP-disciplined clusters qualify).
type StartArgs struct {
	Spec            RunSpec `json:"spec"`
	StartAtUnixNano int64   `json:"start_at_unix_nano"`
}

// ProgressReply is one periodic delta: cumulative counts since the epoch.
type ProgressReply struct {
	Running   bool    `json:"running"`
	Done      bool    `json:"done"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Issued    uint64  `json:"issued"`
	Completed uint64  `json:"completed"`
	Errors    uint64  `json:"errors"`
	// Failed carries the run error once Done, empty on success.
	Failed string `json:"failed,omitempty"`
}

// ResultReply ships the agent's final summary, histogram digest included.
type ResultReply struct {
	Summary loadgen.Summary `json:"summary"`
}
