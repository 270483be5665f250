package dist

import (
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/stats"
)

// Method names of the stage-service RPC surface.
const (
	MethodProcess  = "stage.process"
	MethodStats    = "stage.stats"
	MethodSetLevel = "stage.setlevel"
	MethodClone    = "stage.clone"
	MethodWithdraw = "stage.withdraw"
	MethodInfo     = "stage.info"
	// MethodIngest configures delta-batched statistics ingest on a stage
	// service (see IngestArgs). Old services answer "unknown method", which
	// the center treats as the legacy per-record contract — the negotiation
	// that lets one deployment mix old and new processes.
	MethodIngest = "stage.ingest"
)

// Method names of the statistics-sink RPC surface (see StatSink): the
// standalone ingest endpoint stat producers push to, one call per completion
// (legacy) or one call per delta batch.
const (
	MethodStatRecord = "stats.record"
	MethodStatDelta  = "stats.delta"
)

// IngestArgs asks a stage service to switch from per-record query-carried
// statistics to delta-batched ingest: fold completions locally, flush a
// merged stats.Delta every Batch completed queries or IntervalNS of local
// time, whichever comes first. Version names the delta frame format the
// center understands; a service refuses versions newer than its own, so a
// mixed deployment falls back to per-record rather than misfolding.
type IngestArgs struct {
	Version    int   `json:"version"`
	Batch      int   `json:"batch"`
	IntervalNS int64 `json:"interval_ns"`
}

// IngestReply acknowledges the ingest configuration.
type IngestReply struct {
	Accepted bool `json:"accepted"`
	Version  int  `json:"version"`
}

// StatRecordArgs is the legacy one-call-per-completion stat push: the
// query's end-to-end latency plus its per-instance records.
type StatRecordArgs struct {
	QueryID   uint64       `json:"query_id"`
	LatencyNS int64        `json:"latency_ns"`
	Records   []RecordWire `json:"records"`
}

// ProcessArgs carries one query into a stage service. Work holds the
// branch demands for this stage (one entry for pipeline stages). ProcessArgs,
// ProcessReply and StatsReply are the per-query and per-tick bodies: they
// travel hand-encoded (wire.go); their JSON tags remain for the tests that
// hold the two encodings equal.
type ProcessArgs struct {
	QueryID uint64          `json:"query_id"`
	Work    []time.Duration `json:"work"`
}

// RecordWire is a query.Record in wire form. Level and Boosted carry the
// serving instance's DVFS state for the telemetry tracer.
type RecordWire struct {
	Instance   string        `json:"instance"`
	Stage      string        `json:"stage"`
	QueueEnter time.Duration `json:"queue_enter"`
	ServeStart time.Duration `json:"serve_start"`
	ServeEnd   time.Duration `json:"serve_end"`
	Level      int           `json:"level,omitempty"`
	Boosted    bool          `json:"boosted,omitempty"`
}

// ProcessReply returns the latency records the stage appended — the joint
// design's query-carried statistics. Under delta-batched ingest Records is
// empty (the statistics were folded locally) and Delta carries the batched
// summary when this completion tripped a flush.
type ProcessReply struct {
	Records []RecordWire `json:"records,omitempty"`
	Delta   *stats.Delta `json:"delta,omitempty"`
}

// InstanceStats is one instance's realtime and configuration state.
type InstanceStats struct {
	Name        string    `json:"name"`
	QueueLen    int       `json:"queue_len"`
	Level       cmp.Level `json:"level"`
	Utilization float64   `json:"utilization"`
}

// StatsReply is the stage's instance snapshot. Under delta-batched ingest
// Delta carries whatever the accumulator had pending at the refresh — the
// staleness backstop: every control-interval stats pull drains the batch, so
// the planner's inputs are never staler than max(flush interval, control
// interval) even at trickle traffic.
type StatsReply struct {
	Instances []InstanceStats `json:"instances"`
	Delta     *stats.Delta    `json:"delta,omitempty"`
}

// SetLevelArgs requests a DVFS transition on one instance.
type SetLevelArgs struct {
	Instance string    `json:"instance"`
	Level    cmp.Level `json:"level"`
}

// CloneArgs requests instance boosting of the named bottleneck.
type CloneArgs struct {
	Instance string `json:"instance"`
}

// CloneReply names the launched clone.
type CloneReply struct {
	Name  string    `json:"name"`
	Level cmp.Level `json:"level"`
}

// WithdrawArgs requests draining the named instance, redirecting its load to
// Target when given.
type WithdrawArgs struct {
	Instance string `json:"instance"`
	Target   string `json:"target,omitempty"`
}

// InfoReply describes the stage.
type InfoReply struct {
	Name     string  `json:"name"`
	CanScale bool    `json:"can_scale"`
	MemBound float64 `json:"mem_bound"`
}

// toRecord converts wire form back to the query record.
func (r RecordWire) toRecord(id query.ID) query.Record {
	return query.Record{
		Query:      id,
		Stage:      r.Stage,
		Instance:   r.Instance,
		QueueEnter: r.QueueEnter,
		ServeStart: r.ServeStart,
		ServeEnd:   r.ServeEnd,
		Level:      r.Level,
		Boosted:    r.Boosted,
	}
}

// fromRecord converts a query record to wire form.
func fromRecord(rec query.Record) RecordWire {
	return RecordWire{
		Instance:   rec.Instance,
		Stage:      rec.Stage,
		QueueEnter: rec.QueueEnter,
		ServeStart: rec.ServeStart,
		ServeEnd:   rec.ServeEnd,
		Level:      rec.Level,
		Boosted:    rec.Boosted,
	}
}
