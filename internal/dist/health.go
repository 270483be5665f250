package dist

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/rpc"
	"powerchief/internal/telemetry"
)

// CenterOptions tunes the center's fault tolerance.
type CenterOptions struct {
	// CallTimeout bounds control-plane calls: stats refresh, DVFS, clone,
	// withdraw, probes (default 3s).
	CallTimeout time.Duration
	// SubmitTimeout bounds each per-stage process call of a Submit; a stage
	// that holds a query longer counts as failed (default 60s).
	SubmitTimeout time.Duration
	// Retry governs idempotent calls (stage.stats, stage.info).
	Retry rpc.RetryPolicy
	// ProbeInterval is the cadence of the background health probe. Zero
	// defaults to 500ms; negative disables the prober (tests drive probes
	// explicitly via ProbeNow).
	ProbeInterval time.Duration
	// SuspectAfter is how many consecutive failures demote a stage from
	// suspect to down (default 2; the first failure always moves healthy to
	// suspect).
	SuspectAfter int
	// DegradedSubmit makes Submit skip quarantined stages — serving partial
	// pipelines from the survivors — instead of failing fast with
	// fault.ErrStageDown.
	DegradedSubmit bool

	// IngestBatch and IngestInterval size the stages' statistics batches:
	// every stage service folds completions locally and ships one
	// stats.Delta per IngestBatch completed queries or IngestInterval of
	// stage-local time, whichever comes first (zeros apply
	// stats.DefaultDeltaBatch / DefaultDeltaInterval). Sent to each stage by
	// MethodIngest at connect and at re-admission. Together with the
	// control-loop stats refresh — which drains pending batches — the
	// interval bounds how stale the planner's Eq. 1/2/3 inputs can be.
	IngestBatch    int
	IngestInterval time.Duration

	// Audit, when set, receives a structured event for every health
	// transition — suspect, quarantine (with the watts reclaimed into the
	// survivors' headroom), recovering, re-admission — alongside the policy
	// decisions recorded through core.AuditSetter.
	Audit *telemetry.AuditLog
	// Tracer, when set, samples completed queries into span trees built
	// from the joint-design records, which the stages then return in full
	// on every reply (ProcessArgs.Trace) next to the statistics deltas.
	Tracer *telemetry.Tracer
	// Clock, when set, is the center's time (Center.Now): the statistics
	// window, the end-to-end latencies and the ingest staleness run on it.
	// A center under a compressed timescale passes its control loop's
	// controlplane.WallClock, so they are in the virtual time the stages'
	// statistics and the QoS target are in. Nil is wall time since start.
	Clock controlplane.Clock
}

func (o CenterOptions) withDefaults() CenterOptions {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 3 * time.Second
	}
	if o.SubmitTimeout <= 0 {
		o.SubmitTimeout = 60 * time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2
	}
	return o
}

// Health returns the stage's current health state.
func (st *remoteStage) Health() fault.Health {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.health.State()
}

// quarantined reports whether the stage is excluded from the system view:
// out of Stages() and Draw(), its watts reclaimed into Headroom().
func (st *remoteStage) quarantined() bool { return st.Health().Quarantined() }

// noteSuccess records a successful call. A stray late success on a
// quarantined stage changes nothing: re-admission must not skip the budget
// accounting.
func (st *remoteStage) noteSuccess() {
	st.mu.Lock()
	tr := st.health.Succeed()
	st.mu.Unlock()
	st.book(tr, nil)
}

// noteFailure records a failed call; a broken connection quarantines at once.
func (st *remoteStage) noteFailure(err error) {
	broken := st.client.Broken()
	st.mu.Lock()
	tr := st.health.Fail(err, st.center.opts.SuspectAfter, broken)
	st.mu.Unlock()
	st.book(tr, err)
}

// setHealth forces a state (prober transitions).
func (st *remoteStage) setHealth(h fault.Health) {
	st.mu.Lock()
	tr := st.health.Set(h)
	st.mu.Unlock()
	st.book(tr, nil)
}

// book counts one transition (whether or not auditing is enabled — the
// counters feed /metrics), then audits it. Called with st.mu released: the
// quarantine event snapshots the stage's draw and the survivors' headroom,
// both of which re-acquire locks.
func (st *remoteStage) book(tr fault.Transition, err error) {
	st.center.tally.Book(tr)
	a := st.center.opts.Audit
	if tr.From == tr.To || !a.Enabled() {
		return
	}
	e := telemetry.Event{
		Time:   st.center.Now(),
		Stage:  st.name,
		Detail: tr.From.String() + "->" + tr.To.String(),
	}
	if err != nil {
		e.Err = err.Error()
	}
	switch tr.To {
	case fault.Suspect:
		e.Kind = telemetry.EventStageSuspect
	case fault.Down:
		// The stage leaves the system view here: its watts stop counting in
		// Draw, which is exactly the headroom handed to the survivors.
		e.Kind = telemetry.EventStageQuarantine
		e.ReclaimedWatts = float64(st.draw(st.center.model))
		e.HeadroomWatts = float64(st.center.Headroom())
	case fault.Recovering:
		e.Kind = telemetry.EventStageRecovering
	case fault.Healthy:
		if !tr.Readmitted() {
			return // a suspect stage answering again is not a re-admission
		}
		e.Kind = telemetry.EventStageReadmit
		e.HeadroomWatts = float64(st.center.Headroom())
	}
	a.Record(e)
}

// LastError returns the error that drove the stage out of healthy, if any.
func (st *remoteStage) LastError() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.health.Err()
}

// draw sums the power of the stage's snapshot instances.
func (st *remoteStage) draw(model cmp.PowerModel) cmp.Watts {
	st.mu.Lock()
	defer st.mu.Unlock()
	var sum cmp.Watts
	for _, in := range st.snapshot {
		sum += model.Power(in.Level())
	}
	return sum
}

// --- background prober ---

func (c *Center) probeLoop(interval time.Duration) {
	defer c.probeWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-ticker.C:
			c.ProbeNow()
		}
	}
}

// ProbeNow runs one probe pass over every non-healthy stage: suspect stages
// are re-checked (success clears them, failure may quarantine them); down
// stages are redialed and, when reachable again, re-admitted. Normally
// driven by the background prober; exported so tests and callers can force a
// pass.
func (c *Center) ProbeNow() {
	c.mu.Lock()
	stages := make([]*remoteStage, len(c.stages))
	copy(stages, c.stages)
	c.mu.Unlock()
	for _, st := range stages {
		switch st.Health() {
		case fault.Suspect:
			if err := st.refresh(); err != nil {
				st.noteFailure(err)
			} else {
				st.noteSuccess()
			}
		case fault.Down:
			c.tryReadmit(st)
		}
	}
}

// tryReadmit probes a down stage and, on success, re-admits it: its budget
// share is restored — lowering its own instances, then deboosting survivors
// if the reclaimed watts have already been spent — before it is marked
// healthy, so the global budget is never exceeded.
func (c *Center) tryReadmit(st *remoteStage) {
	if st.client.Broken() {
		if err := st.client.Redial(); err != nil {
			return // still unreachable; stays down
		}
	}
	// stage.info, not stage.stats: a probe must not drain (and drop) the
	// stage's pending statistics; readmit's refresh folds them.
	if err := st.client.CallDeadline(MethodInfo, nil, nil, c.opts.CallTimeout); err != nil {
		return // reachable check failed; stays down
	}
	st.setHealth(fault.Recovering)
	if err := c.readmit(st); err != nil {
		st.setHealth(fault.Down) // retried at the next probe
	}
}

// readmit restores a recovering stage's budget share and marks it healthy.
// Serialized with Adjust via adjustMu so the budget arithmetic cannot race a
// control interval.
func (c *Center) readmit(st *remoteStage) error {
	c.adjustMu.Lock()
	defer c.adjustMu.Unlock()

	// Re-send the flush sizes first, so that the frames refresh folds next
	// are tracked as a restarted process's. A failure never blocks
	// re-admission: the stage keeps flushing at the sizes it has.
	_ = c.configureIngest(st)
	if err := st.refresh(); err != nil {
		return fmt.Errorf("dist: readmit refresh: %w", err)
	}

	// The stage is still quarantined, so Draw() excludes it: its current draw
	// must fit in what is left of the budget before it is re-counted. One
	// plan sheds the returning stage's own levels first — its old DVFS state
	// may reflect boosts whose power the survivors have since absorbed — then
	// takes back from the survivors, fastest path first (highest levels
	// donate the most), and the executor applies it and, on a mid-plan
	// failure, rolls it back.
	plan := &core.ActionPlan{}
	budget := c.Budget()
	start := c.Draw() + st.draw(c.model)
	draw := core.PlanShed(plan, []core.StageControl{st}, c.model, start, budget, core.ReasonReadmit)
	if draw = core.PlanShed(plan, c.Stages(), c.model, draw, budget, core.ReasonReadmit); draw > budget+1e-9 {
		return fmt.Errorf("dist: readmit of %s needs %.2fW of a %.2fW budget at the lowest levels",
			st.name, float64(draw), float64(budget))
	}
	if res := core.ApplyPlan(c.opts.Audit, c, start, plan); res.Err != nil {
		return fmt.Errorf("dist: readmit of %s: %w", st.name, res.Err)
	}
	st.setHealth(fault.Healthy)
	return nil
}

// StageHealth reports one stage's health state.
type StageHealth struct {
	Name  string
	State fault.Health
	Err   error // last error observed, nil when healthy
}

// Healths returns the health of every stage in pipeline order, quarantined
// or not.
func (c *Center) Healths() []StageHealth {
	c.mu.Lock()
	stages := make([]*remoteStage, len(c.stages))
	copy(stages, c.stages)
	c.mu.Unlock()
	out := make([]StageHealth, len(stages))
	for i, st := range stages {
		out[i] = StageHealth{Name: st.name, State: st.Health(), Err: st.LastError()}
	}
	return out
}
