package dist

import (
	"fmt"
	"sync"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/query"
	"powerchief/internal/rpc"
	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
)

// Center is the distributed Command Center: it owns the application's power
// budget, dispatches queries through the remote stage services in order,
// folds the statistics deltas they return into the aggregator, and drives a
// control policy against a remote view of the deployment.
//
// The center is fault tolerant: every RPC carries a deadline, call outcomes
// drive a per-stage fault.Tracker (the health machine of package fault),
// unreachable stages are quarantined — their watts reclaimed into Headroom
// for the survivors — and a background prober re-admits them once they
// answer again.
type Center struct {
	budget cmp.Watts
	model  cmp.PowerModel
	agg    *core.Aggregator
	start  time.Time
	opts   CenterOptions

	// adjustMu serializes control-plane mutations (Adjust intervals and
	// stage re-admission) so budget arithmetic never races itself.
	adjustMu sync.Mutex

	mu      sync.Mutex
	stages  []*remoteStage
	nextQID uint64

	submitted uint64
	completed uint64
	latency   *stats.Histogram // end-to-end, constant size however long the center runs

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	closed    bool

	// Health-transition counters, kept whether or not auditing is enabled;
	// exported via RegisterMetrics.
	tally fault.Tally

	// ingest tracks the statistics folds (see ingest.go).
	ingest ingestState
}

// NewCenter connects to the stage services at addrs (pipeline order) with
// default fault-tolerance options.
func NewCenter(budget cmp.Watts, window time.Duration, addrs []string) (*Center, error) {
	return NewCenterOptions(budget, window, addrs, CenterOptions{})
}

// NewCenterOptions connects to the stage services at addrs (pipeline order)
// and interrogates each for its stage description.
func NewCenterOptions(budget cmp.Watts, window time.Duration, addrs []string, opts CenterOptions) (*Center, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("dist: center needs a positive power budget")
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: center needs at least one stage address")
	}
	opts = opts.withDefaults()
	c := &Center{
		budget:    budget,
		model:     cmp.DefaultModel(),
		start:     time.Now(),
		opts:      opts,
		latency:   stats.NewBinHistogram(),
		probeStop: make(chan struct{}),
	}
	// The center runs against wall clocks for unbounded stretches, so the
	// aggregator uses constant-memory bucketed windows — the layout the
	// stages' deltas fold into bin for bin.
	c.agg = core.NewAggregatorOptions(window, c.Now, core.AggregatorOptions{
		Window: core.WindowBucketed,
	})
	for _, addr := range addrs {
		client, err := rpc.DialOptions(addr, rpc.ClientOptions{
			CallTimeout: opts.CallTimeout,
			Retry:       opts.Retry,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: dialing stage %s: %w", addr, err)
		}
		var info InfoReply
		if err := client.CallRetry(MethodInfo, nil, &info); err != nil {
			client.Close()
			c.Close()
			return nil, fmt.Errorf("dist: stage %s info: %w", addr, err)
		}
		st := &remoteStage{
			center:   c,
			client:   client,
			name:     info.Name,
			canScale: info.CanScale,
			profile:  cmp.NewRooflineProfile(info.MemBound),
		}
		if err := c.configureIngest(st); err != nil {
			client.Close()
			c.Close()
			return nil, fmt.Errorf("dist: stage %s ingest sizes: %w", addr, err)
		}
		if err := st.refresh(); err != nil {
			client.Close()
			c.Close()
			return nil, fmt.Errorf("dist: stage %s stats: %w", addr, err)
		}
		c.stages = append(c.stages, st)
	}
	if opts.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop(opts.ProbeInterval)
	}
	return c, nil
}

// Now returns the center's time — CenterOptions.Clock, or time since the
// center started — the reference clock for windowed statistics and
// end-to-end latencies. Per the joint design, per-instance latency
// statistics are measured locally at each stage, so no cross-machine clock
// agreement is needed.
func (c *Center) Now() time.Duration {
	if c.opts.Clock != nil {
		return c.opts.Clock.Now()
	}
	return time.Since(c.start)
}

// Aggregator exposes the center's statistics for inspection.
func (c *Center) Aggregator() *core.Aggregator { return c.agg }

// beginQuery performs the per-query admission bookkeeping atomically: shape
// validation, query-ID assignment and the submitted count all happen under
// one critical section, together with the stage snapshot the query will be
// routed through. The returned qid order therefore matches the admission
// order; RPC issue order downstream is naturally concurrent.
func (c *Center) beginQuery(work [][]time.Duration) (qid uint64, stages []*remoteStage, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(work) != len(c.stages) {
		return 0, nil, fmt.Errorf("dist: work for %d stages, pipeline has %d", len(work), len(c.stages))
	}
	c.nextQID++
	c.submitted++
	stages = make([]*remoteStage, len(c.stages))
	copy(stages, c.stages)
	return c.nextQID, stages, nil
}

// finishQuery counts a completed query and its end-to-end latency, then
// offers it with its trace records to the telemetry tracer (nil-safe no-op
// when tracing is off). The aggregator sees the query without records: the
// per-instance statistics arrive as deltas and must not be counted twice.
func (c *Center) finishQuery(q *query.Query, trace []query.Record) {
	q.Done = c.Now()
	c.agg.Ingest(q)
	c.mu.Lock()
	c.completed++
	c.latency.Observe(q.Latency())
	c.mu.Unlock()
	q.Records = trace
	c.opts.Tracer.ObserveQuery(q)
}

// Submit dispatches one query through all stages, blocking until the
// response returns. Work must hold one row per stage.
//
// Fault handling: a quarantined stage fails the submit fast with an error
// wrapping fault.ErrStageDown — unless the center runs with DegradedSubmit, in
// which case the quarantined stage is skipped and the query is served by the
// survivors. Every per-stage call is bounded by SubmitTimeout, so a hung
// stage cannot block a submit past its deadline; call outcomes feed the
// stage health machine.
func (c *Center) Submit(work [][]time.Duration) (time.Duration, error) {
	qid, stages, err := c.beginQuery(work)
	if err != nil {
		return 0, err
	}

	arrival := c.Now()
	q := &query.Query{ID: query.ID(qid), Arrival: arrival, Work: work}
	args := ProcessArgs{QueryID: qid, Trace: c.opts.Tracer.Enabled()}
	var trace []query.Record
	if args.Trace {
		trace = make([]query.Record, 0, len(stages))
	}
	for i, st := range stages {
		if st.quarantined() {
			if c.opts.DegradedSubmit {
				continue // serve the query from the survivors
			}
			return 0, fmt.Errorf("dist: stage %s: %w", st.name, fault.ErrStageDown)
		}
		var reply ProcessReply
		args.Work = work[i]
		if err := st.client.CallDeadline(MethodProcess, args, &reply, c.opts.SubmitTimeout); err != nil {
			if rpc.IsTransient(err) {
				st.noteFailure(err)
			}
			return 0, fmt.Errorf("dist: stage %s: %w", st.name, err)
		}
		st.noteSuccess()
		if len(reply.Records) > 0 {
			for _, rec := range reply.Records {
				trace = append(trace, rec.toRecord(q.ID))
			}
			c.ingest.traceRecords.Add(uint64(len(reply.Records)))
		}
		if reply.Delta != nil {
			// A completion on this stage tripped a flush: fold the batch.
			// A malformed frame loses only statistics, never the query.
			_ = c.foldDelta(st, reply.Delta)
		}
	}
	c.finishQuery(q, trace)
	return q.Latency(), nil
}

// Counts returns submitted and completed query counts.
func (c *Center) Counts() (submitted, completed uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitted, c.completed
}

// Latency returns a snapshot of the end-to-end latency distribution of every
// completed query: count, mean and quantiles to within one log-spaced bin.
func (c *Center) Latency() *stats.Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := stats.NewBinHistogram()
	_ = snap.Merge(c.latency) // same bin layout: cannot fail
	return snap
}

// Adjust refreshes the remote snapshots and runs one control interval of the
// policy against the deployment.
//
// Fault handling (degraded mode): stages that cannot be refreshed are not
// fatal — the failure feeds their health machine (repeated failures
// quarantine them, reclaiming their watts into Headroom), and the policy
// runs against whatever stages remain reachable, boosting survivors with the
// freed power. Only when every stage is quarantined does Adjust refuse to
// run, with fault.ErrNoHealthyStages.
func (c *Center) Adjust(policy core.Policy) (core.BoostOutcome, error) {
	c.adjustMu.Lock()
	defer c.adjustMu.Unlock()

	c.mu.Lock()
	stages := make([]*remoteStage, len(c.stages))
	copy(stages, c.stages)
	c.mu.Unlock()

	healthy := 0
	for _, st := range stages {
		if st.quarantined() {
			continue // the prober owns its path back
		}
		if err := st.refresh(); err != nil {
			st.noteFailure(err)
			if !st.quarantined() {
				// Still only suspect: keep its last snapshot in the view for
				// this interval rather than acting on a half-empty pipeline.
				healthy++
			}
			continue
		}
		st.noteSuccess()
		healthy++
	}
	if healthy == 0 {
		return core.BoostOutcome{}, fault.ErrNoHealthyStages
	}
	return policy.Adjust(c, c.agg), nil
}

// QuarantineCounts returns the lifetime number of stage quarantines and
// re-admissions the health machine has performed.
func (c *Center) QuarantineCounts() (quarantines, readmissions uint64) {
	return c.tally.Counts()
}

// RegisterMetrics exports the center's telemetry on reg: modelled draw and
// headroom, query and decision counters, the aggregator's moving-window
// latency, and the health machine — a per-stage health-state gauge (0
// healthy, 1 suspect, 2 down, 3 recovering), the count of currently
// quarantined stages, and lifetime quarantine/re-admission counters. Stage
// names are sanitized into the metric-name charset.
func (c *Center) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("powerchief_power_draw_watts", "current modelled chip draw", func() float64 { return float64(c.Draw()) })
	reg.GaugeFunc("powerchief_power_headroom_watts", "budget minus draw", func() float64 { return float64(c.Headroom()) })
	reg.CounterFunc("powerchief_queries_submitted_total", "queries admitted", func() float64 { sub, _ := c.Counts(); return float64(sub) })
	reg.CounterFunc("powerchief_queries_completed_total", "queries completed", func() float64 { _, comp := c.Counts(); return float64(comp) })
	reg.CounterFunc("powerchief_decisions_total", "decision audit events recorded", func() float64 { return float64(c.opts.Audit.LastSeq()) })
	// Read from the sharded aggregator's merged moving windows (constant
	// memory in the distributed center).
	reg.GaugeFunc("powerchief_window_latency_seconds", "moving-window mean end-to-end latency", func() float64 { m, _ := c.agg.WindowLatency(); return m.Seconds() })
	reg.GaugeFunc("powerchief_window_latency_p99_seconds", "moving-window p99 end-to-end latency", func() float64 { p, _ := c.agg.WindowTail(0.99); return p.Seconds() })
	reg.CounterFunc("powerchief_queries_ingested_total", "completed queries folded into the statistics windows", func() float64 { return float64(c.agg.Ingested()) })
	c.mu.Lock()
	stages := make([]*remoteStage, len(c.stages))
	copy(stages, c.stages)
	c.mu.Unlock()
	for _, st := range stages {
		st := st
		reg.GaugeFunc("powerchief_stage_health_"+telemetry.SanitizeName(st.name),
			"stage health state (0 healthy, 1 suspect, 2 down, 3 recovering)",
			func() float64 { return float64(st.Health()) })
	}
	reg.GaugeFunc("powerchief_stages_quarantined", "stages currently quarantined by the health machine", func() float64 {
		return float64(len(c.Quarantined()))
	})
	reg.CounterFunc("powerchief_stage_quarantines_total", "lifetime stage quarantines", func() float64 {
		q, _ := c.tally.Counts()
		return float64(q)
	})
	reg.CounterFunc("powerchief_stage_readmissions_total", "lifetime stage re-admissions", func() float64 {
		_, r := c.tally.Counts()
		return float64(r)
	})
}

// Close stops the prober and tears down the stage connections. Idempotent.
func (c *Center) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.probeStop)
	}
	stages := c.stages
	c.stages = nil
	c.mu.Unlock()
	c.probeWG.Wait()
	for _, st := range stages {
		st.client.Close()
	}
}

// --- core.System over RPC ---

// PowerModel implements core.System.
func (c *Center) PowerModel() cmp.PowerModel { return c.model }

// Budget implements core.System.
func (c *Center) Budget() cmp.Watts { return c.budget }

// Draw implements core.System: computed from the last snapshots. Quarantined
// stages draw nothing — a down stage's watts are reclaimed into Headroom so
// the survivors can be boosted with them.
func (c *Center) Draw() cmp.Watts {
	c.mu.Lock()
	stages := make([]*remoteStage, len(c.stages))
	copy(stages, c.stages)
	c.mu.Unlock()
	var sum cmp.Watts
	for _, st := range stages {
		if st.quarantined() {
			continue
		}
		sum += st.draw(c.model)
	}
	return sum
}

// Headroom implements core.System.
func (c *Center) Headroom() cmp.Watts { return c.budget - c.Draw() }

// FreeCores implements core.System: the center assumes each stage service
// machine has capacity for more instances; the practical bound is the power
// budget, so report the budget headroom in whole minimum-power cores.
func (c *Center) FreeCores() int {
	h := c.Headroom()
	if h <= 0 {
		return 0
	}
	n := int(h / c.model.MinPower())
	if n < 1 {
		// Recycling can still fund a core even with zero headroom now.
		n = 1
	}
	return n
}

// Stages implements core.System. Quarantined stages are excluded so the
// policy — and in particular the power recycler — never actuates an
// instance the center cannot reach.
func (c *Center) Stages() []core.StageControl {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.StageControl, 0, len(c.stages))
	for _, st := range c.stages {
		if st.quarantined() {
			continue
		}
		out = append(out, st)
	}
	return out
}

// Quarantined implements core.System: the stages currently excluded from the
// control view. Their capacity is visible here so callers can account for
// watts that will return on re-admission.
func (c *Center) Quarantined() []core.StageControl {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []core.StageControl
	for _, st := range c.stages {
		if st.quarantined() {
			out = append(out, st)
		}
	}
	return out
}

// remoteStage adapts one stage service to core.StageControl and carries the
// stage's fault-handling state.
type remoteStage struct {
	center   *Center
	client   *rpc.Client
	name     string
	canScale bool
	profile  cmp.SpeedupProfile

	mu       sync.Mutex
	snapshot []*remoteInstance
	health   fault.Tracker
}

// refresh pulls a fresh instance snapshot from the service. stage.stats is
// idempotent, so transient failures are retried with backoff. The reply also
// drains the stage's pending batch — the staleness backstop that keeps Eq.
// 1/2/3 inputs no staler than max(flush interval, control interval).
func (st *remoteStage) refresh() error {
	var reply StatsReply
	if err := st.client.CallRetry(MethodStats, nil, &reply); err != nil {
		return err
	}
	st.mu.Lock()
	st.snapshot = st.snapshot[:0]
	for _, is := range reply.Instances {
		st.snapshot = append(st.snapshot, &remoteInstance{stage: st, stats: is, level: is.Level})
	}
	st.mu.Unlock()
	if reply.Delta != nil {
		_ = st.center.foldDelta(st, reply.Delta)
	}
	return nil
}

// Name implements core.StageControl.
func (st *remoteStage) Name() string { return st.name }

// CanScale implements core.StageControl.
func (st *remoteStage) CanScale() bool { return st.canScale }

// Profile implements core.StageControl.
func (st *remoteStage) Profile() cmp.SpeedupProfile { return st.profile }

// Instances implements core.StageControl.
func (st *remoteStage) Instances() []core.Instance {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]core.Instance, len(st.snapshot))
	for i, in := range st.snapshot {
		out[i] = in
	}
	return out
}

// Clone implements core.StageControl over RPC. The center checks the power
// budget before authorizing the launch.
func (st *remoteStage) Clone(bottleneck core.Instance) (core.Instance, error) {
	src, ok := bottleneck.(*remoteInstance)
	if !ok {
		return nil, fmt.Errorf("dist: clone target %s is not a remote instance", bottleneck.Name())
	}
	cost := st.center.model.Power(src.Level())
	if st.center.Headroom()+1e-9 < cost {
		return nil, cmp.ErrBudgetExceeded
	}
	var reply CloneReply
	if err := st.client.Call(MethodClone, CloneArgs{Instance: src.Name()}, &reply); err != nil {
		if rpc.IsTransient(err) {
			st.noteFailure(err)
		}
		return nil, err
	}
	st.noteSuccess()
	clone := &remoteInstance{
		stage: st,
		stats: InstanceStats{Name: reply.Name, Level: reply.Level, QueueLen: src.stats.QueueLen / 2},
		level: reply.Level,
	}
	st.mu.Lock()
	st.snapshot = append(st.snapshot, clone)
	st.mu.Unlock()
	return clone, nil
}

// Withdraw implements core.StageControl over RPC.
func (st *remoteStage) Withdraw(victim, target core.Instance) error {
	v, ok := victim.(*remoteInstance)
	if !ok {
		return fmt.Errorf("dist: withdraw victim %s is not a remote instance", victim.Name())
	}
	args := WithdrawArgs{Instance: v.Name()}
	if target != nil {
		args.Target = target.Name()
	}
	if err := st.client.Call(MethodWithdraw, args, nil); err != nil {
		if rpc.IsTransient(err) {
			st.noteFailure(err)
		}
		return err
	}
	st.noteSuccess()
	st.mu.Lock()
	for i, in := range st.snapshot {
		if in == v {
			st.snapshot = append(st.snapshot[:i], st.snapshot[i+1:]...)
			break
		}
	}
	st.mu.Unlock()
	return nil
}

// remoteInstance adapts one remote service instance. Realtime fields come
// from the last snapshot; actuation goes over RPC with the center enforcing
// the budget.
type remoteInstance struct {
	stage *remoteStage
	stats InstanceStats

	mu    sync.Mutex
	level cmp.Level
}

// Name implements core.Instance.
func (in *remoteInstance) Name() string { return in.stats.Name }

// StageName implements core.Instance.
func (in *remoteInstance) StageName() string { return in.stage.name }

// QueueLen implements core.Instance (from the snapshot).
func (in *remoteInstance) QueueLen() int { return in.stats.QueueLen }

// Utilization implements core.Instance (from the snapshot).
func (in *remoteInstance) Utilization() float64 { return in.stats.Utilization }

// ResetUtilizationEpoch implements core.Instance. Remote utilization epochs
// are managed by the stage service per withdraw interval; the snapshot value
// simply refreshes each interval, so this is a no-op.
func (in *remoteInstance) ResetUtilizationEpoch() {}

// Level implements core.Instance.
func (in *remoteInstance) Level() cmp.Level {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.level
}

// SetLevel implements core.Instance: budget-checked at the center, applied
// over RPC.
func (in *remoteInstance) SetLevel(l cmp.Level) error {
	if !l.Valid() {
		return fmt.Errorf("dist: invalid level %d", int(l))
	}
	cur := in.Level()
	if l == cur {
		return nil
	}
	delta := in.stage.center.model.Power(l) - in.stage.center.model.Power(cur)
	if delta > 0 && in.stage.center.Headroom()+1e-9 < delta {
		return cmp.ErrBudgetExceeded
	}
	if err := in.stage.client.Call(MethodSetLevel, SetLevelArgs{Instance: in.Name(), Level: l}, nil); err != nil {
		if rpc.IsTransient(err) {
			in.stage.noteFailure(err)
		}
		return err
	}
	in.stage.noteSuccess()
	in.mu.Lock()
	in.level = l
	in.mu.Unlock()
	return nil
}

// Interface conformance.
var (
	_ core.System       = (*Center)(nil)
	_ core.StageControl = (*remoteStage)(nil)
	_ core.Instance     = (*remoteInstance)(nil)
)
