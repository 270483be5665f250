package dist

import (
	"fmt"
	"sort"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/fault"
	"powerchief/internal/rpc"
	"powerchief/internal/telemetry"
)

// ErrStageDown marks a submit or actuation rejected because the target stage
// is quarantined (down or still recovering). Callers fail fast instead of
// waiting out an RPC deadline against a peer the center already knows is
// unreachable. Test with errors.Is. The value lives in the fault leaf
// package so the control plane can classify it without importing dist.
var ErrStageDown = fault.ErrStageDown

// ErrNoHealthyStages marks a control interval that could not run because
// every stage of the pipeline is quarantined.
var ErrNoHealthyStages = fault.ErrNoHealthyStages

// HealthState is one stage connection's position in the fault-handling state
// machine:
//
//	Healthy ──failure──► Suspect ──SuspectAfter consecutive failures──► Down
//	   ▲                    │ success                                     │
//	   └────────────────────┘                             probe success   │
//	   ▲                                                                  ▼
//	   └──────────── re-admission (budget restored) ──────── Recovering ◄─┘
//
// Down and Recovering stages are *quarantined*: excluded from Stages() and
// Draw(), their watts reclaimed into Headroom() for the survivors.
//
// The state vocabulary is shared with the fleet coordinator (which runs the
// same machine per node) via the fault leaf package; HealthState is an alias
// so existing dist callers keep compiling while both layers compare against
// one set of values.
type HealthState = fault.Health

const (
	// Healthy: calls are succeeding.
	Healthy = fault.Healthy
	// Suspect: at least one recent call failed; still served and counted,
	// probed in the background.
	Suspect = fault.Suspect
	// Down: quarantined after repeated failures or a broken connection.
	Down = fault.Down
	// Recovering: a probe succeeded; the stage is being re-admitted (budget
	// share restored) but is still quarantined until that completes.
	Recovering = fault.Recovering
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
	// ErrStageDown.
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
func (st *remoteStage) Health() HealthState {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.health
}

// quarantined reports whether the stage is excluded from the system view.
func (st *remoteStage) quarantined() bool {
	h := st.Health()
	return h == Down || h == Recovering
}

// noteSuccess records a successful call: a healthy or suspect stage returns
// to healthy. Down/Recovering transitions belong to the prober, which owns
// re-admission — a stray late success must not skip the budget accounting,
// and the error that quarantined the stage stays visible until it is
// actually re-admitted.
func (st *remoteStage) noteSuccess() {
	st.mu.Lock()
	old := st.health
	st.fails = 0
	if st.health == Healthy || st.health == Suspect {
		st.health = Healthy
		st.lastErr = nil
	}
	cur := st.health
	st.mu.Unlock()
	st.auditTransition(old, cur, nil)
}

// noteFailure records a failed call and walks the state machine: first
// failure makes a healthy stage suspect; SuspectAfter consecutive failures —
// or a broken connection — quarantine it.
func (st *remoteStage) noteFailure(err error) {
	broken := st.client.Broken()
	st.mu.Lock()
	st.fails++
	st.lastErr = err
	old := st.health
	switch st.health {
	case Healthy:
		st.health = Suspect
		if broken || st.fails >= st.center.opts.SuspectAfter {
			st.health = Down
		}
	case Suspect, Recovering:
		if broken || st.fails >= st.center.opts.SuspectAfter {
			st.health = Down
		}
	}
	cur := st.health
	st.mu.Unlock()
	st.auditTransition(old, cur, err)
}

// setHealth forces a state (prober transitions).
func (st *remoteStage) setHealth(h HealthState) {
	st.mu.Lock()
	old := st.health
	st.health = h
	if h == Healthy {
		st.fails = 0
		st.lastErr = nil
	}
	st.mu.Unlock()
	st.auditTransition(old, h, nil)
}

// auditTransition records one health-state change: quarantine/re-admission
// counters first (kept regardless of audit enablement — they feed /metrics),
// then the audit event. Called with st.mu released: the quarantine event
// snapshots the stage's draw and the survivors' headroom, both of which
// re-acquire locks.
func (st *remoteStage) auditTransition(old, cur HealthState, err error) {
	if old == cur {
		return
	}
	switch cur {
	case Down:
		st.center.quarantines.Add(1)
	case Healthy:
		if old == Recovering {
			st.center.readmissions.Add(1)
		}
	}
	a := st.center.opts.Audit
	if !a.Enabled() {
		return
	}
	e := telemetry.Event{
		Time:   st.center.Now(),
		Stage:  st.name,
		Detail: old.String() + "->" + cur.String(),
	}
	if err != nil {
		e.Err = err.Error()
	}
	switch cur {
	case Suspect:
		e.Kind = telemetry.EventStageSuspect
	case Down:
		// The stage leaves the system view here: its watts stop counting in
		// Draw, which is exactly the headroom handed to the survivors.
		e.Kind = telemetry.EventStageQuarantine
		e.ReclaimedWatts = float64(st.draw(st.center.model))
		e.HeadroomWatts = float64(st.center.Headroom())
	case Recovering:
		e.Kind = telemetry.EventStageRecovering
	case Healthy:
		// Either re-admission (recovering->healthy, budget restored) or a
		// suspect stage answering again; Detail distinguishes them.
		e.Kind = telemetry.EventStageReadmit
		e.HeadroomWatts = float64(st.center.Headroom())
	}
	a.Record(e)
}

// LastError returns the error that drove the stage out of healthy, if any.
func (st *remoteStage) LastError() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastErr
}

// draw sums the power of the stage's snapshot instances.
func (st *remoteStage) draw(model cmp.PowerModel) cmp.Watts {
	st.mu.Lock()
	defer st.mu.Unlock()
	var sum cmp.Watts
	for _, in := range st.snapshot {
		sum += model.Power(in.level)
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
		case Suspect:
			if err := st.refresh(); err != nil {
				st.noteFailure(err)
			} else {
				st.noteSuccess()
			}
		case Down:
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
	st.setHealth(Recovering)
	if err := c.readmit(st); err != nil {
		st.setHealth(Down) // retried at the next probe
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

	const eps = 1e-9
	// The stage is still quarantined, so Headroom() excludes it: its current
	// draw must fit in what is left of the budget before it is re-counted.
	need := st.draw(c.model)

	// First shed the returning stage's own levels — its old DVFS state may
	// reflect boosts whose power the survivors have since absorbed.
	for need > c.Headroom()+eps {
		in := st.highestInstance()
		if in == nil || in.Level() == 0 {
			break
		}
		if err := st.client.CallDeadline(MethodSetLevel,
			SetLevelArgs{Instance: in.Name(), Level: in.Level() - 1}, nil, c.opts.CallTimeout); err != nil {
			return fmt.Errorf("dist: readmit lowering %s: %w", in.Name(), err)
		}
		in.mu.Lock()
		in.level--
		in.mu.Unlock()
		need = st.draw(c.model)
	}

	// Still over: the survivors were boosted with the reclaimed watts; take
	// them back, fastest path first (highest levels donate the most).
	for need > c.Headroom()+eps {
		donor := c.highestSurvivorInstance(st)
		if donor == nil {
			return fmt.Errorf("dist: readmit of %s needs %.2fW but only %.2fW can be freed",
				st.name, float64(need), float64(c.Headroom()))
		}
		// Lowering frequency never exceeds the budget.
		if err := donor.SetLevel(donor.Level() - 1); err != nil {
			return fmt.Errorf("dist: readmit deboosting %s: %w", donor.Name(), err)
		}
	}

	st.setHealth(Healthy)
	return nil
}

// highestInstance returns the snapshot instance at the highest level, or nil.
func (st *remoteStage) highestInstance() *remoteInstance {
	st.mu.Lock()
	defer st.mu.Unlock()
	var best *remoteInstance
	for _, in := range st.snapshot {
		if best == nil || in.level > best.level {
			best = in
		}
	}
	return best
}

// highestSurvivorInstance returns the healthy-stage instance (excluding
// exclude) with the highest level above the floor, or nil when nothing can
// donate.
func (c *Center) highestSurvivorInstance(exclude *remoteStage) *remoteInstance {
	c.mu.Lock()
	stages := make([]*remoteStage, len(c.stages))
	copy(stages, c.stages)
	c.mu.Unlock()
	var donors []*remoteInstance
	for _, st := range stages {
		if st == exclude || st.quarantined() {
			continue
		}
		st.mu.Lock()
		donors = append(donors, st.snapshot...)
		st.mu.Unlock()
	}
	sort.Slice(donors, func(i, j int) bool { return donors[i].Level() > donors[j].Level() })
	for _, in := range donors {
		if in.Level() > 0 {
			return in
		}
	}
	return nil
}

// StageHealth reports one stage's health state.
type StageHealth struct {
	Name  string
	State HealthState
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
