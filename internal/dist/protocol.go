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
	// MethodIngest sets the flush sizes of a stage service's statistics
	// accumulator (see IngestArgs).
	MethodIngest = "stage.ingest"
)

// IngestArgs sets how often a stage service flushes its locally folded
// statistics as a stats.Delta: every Batch completed queries or IntervalNS of
// stage-local time, whichever comes first. Zeros apply the stats defaults;
// the service clamps both to its StageOptions bounds. A plain setter: the
// pending batch and the flush sequence carry over.
type IngestArgs struct {
	Batch      int   `json:"batch"`
	IntervalNS int64 `json:"interval_ns"`
}

// ProcessArgs carries one query into a stage service. Work holds the
// branch demands for this stage (one entry for pipeline stages). ProcessArgs,
// ProcessReply and StatsReply are the per-query and per-tick bodies: they
// travel hand-encoded (wire.go); their JSON tags remain for the tests that
// hold the two encodings equal.
type ProcessArgs struct {
	QueryID uint64          `json:"query_id"`
	Work    []time.Duration `json:"work"`
	// Trace asks for the query's records on the reply, for the center's
	// query tracer. Statistics never travel this way.
	Trace bool `json:"trace,omitempty"`
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

// ProcessReply carries the joint design's query-carried statistics back: the
// stage folded this completion's records locally, and Delta is the batched
// summary when the completion tripped a flush. Records is the trace side
// channel — the same records in full, only when ProcessArgs.Trace asked.
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

// StatsReply is the stage's instance snapshot. Delta carries whatever the
// accumulator had pending at the refresh — the staleness backstop: every
// control-interval stats pull drains the batch, so the planner's inputs are
// never staler than max(flush interval, control interval) even at trickle
// traffic.
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
