package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"powerchief/internal/cmp"
)

// SnapshotVersion is the schema version stamped on every capture. Readers
// reject snapshots from a different schema — silent reinterpretation of a
// recorded decision input would defeat the replay determinism gate.
const SnapshotVersion = 1

// InstanceSnap captures one service instance at a control tick: its realtime
// load, its DVFS level, and the windowed statistics the Identifier read.
type InstanceSnap struct {
	Name        string        `json:"name"`
	QueueLen    int           `json:"queue_len"`
	Level       cmp.Level     `json:"level"`
	Utilization float64       `json:"utilization"`
	Queuing     time.Duration `json:"queuing_ns"`
	Serving     time.Duration `json:"serving_ns"`
	StatsOK     bool          `json:"stats_ok"`
}

// StageSnap captures one stage: scaling capability, the offline frequency
// profile (as an explicit table, so the capture carries its own physics),
// and the live instances.
type StageSnap struct {
	Name      string           `json:"name"`
	CanScale  bool             `json:"can_scale"`
	Profile   cmp.TableProfile `json:"exec_ratio"`
	Instances []InstanceSnap   `json:"instances"`
}

// WindowSnap captures the end-to-end latency window at a fixed quantile
// grid. Policies read the mean (WindowLatency); the tails feed replay
// scoring. OK mirrors the aggregator's window-empty signal.
type WindowSnap struct {
	OK      bool          `json:"ok"`
	Latency time.Duration `json:"latency_ns"`
	P50     time.Duration `json:"p50_ns"`
	P90     time.Duration `json:"p90_ns"`
	P99     time.Duration `json:"p99_ns"`
	P999    time.Duration `json:"p999_ns"`
}

// Snapshot is a self-contained, versioned capture of everything a Planner
// reads at one control tick: the budget ledger, the power model, per-stage /
// per-instance state and statistics, quarantine names and the clock. A
// Snapshot plus a policy determines the policy's ActionPlan — that is the
// purity contract (DESIGN.md §5l) the replay engine is built on.
type Snapshot struct {
	Version     int            `json:"version"`
	Now         time.Duration  `json:"now_ns"`
	Budget      cmp.Watts      `json:"budget_watts"`
	Draw        cmp.Watts      `json:"draw_watts"`
	FreeCores   int            `json:"free_cores"`
	Power       cmp.TableModel `json:"power_watts"`
	Stages      []StageSnap    `json:"stages"`
	Quarantined []string       `json:"quarantined,omitempty"`
	Window      WindowSnap     `json:"window"`
}

// snapshotGrid is the quantile grid of WindowSnap, in field order.
var snapshotGrid = [...]float64{0.5, 0.9, 0.99, 0.999}

// CaptureSnapshot captures the decision inputs of one control tick. The
// stats reader may be nil (topology-only capture: StatsOK false everywhere).
func CaptureSnapshot(sys System, stats StatsReader) *Snapshot {
	snap := &Snapshot{
		Version:   SnapshotVersion,
		Now:       sys.Now(),
		Budget:    sys.Budget(),
		Draw:      sys.Draw(),
		FreeCores: sys.FreeCores(),
	}
	model := sys.PowerModel()
	for l := cmp.Level(0); l < cmp.NumLevels; l++ {
		snap.Power[l] = model.Power(l)
	}
	stages := sys.Stages()
	snap.Stages = slices.Grow(snap.Stages, len(stages)) // nil stays nil: empty captures encode as before
	for _, st := range stages {
		ss := StageSnap{Name: st.Name(), CanScale: st.CanScale()}
		profile := st.Profile()
		for l := cmp.Level(0); l < cmp.NumLevels; l++ {
			ss.Profile[l] = profile.ExecRatio(l)
		}
		ins := st.Instances()
		ss.Instances = slices.Grow(ss.Instances, len(ins))
		for _, in := range ins {
			is := InstanceSnap{
				Name:        in.Name(),
				QueueLen:    in.QueueLen(),
				Level:       in.Level(),
				Utilization: in.Utilization(),
			}
			if stats != nil {
				is.Queuing, is.Serving, is.StatsOK = stats.InstStats(is.Name)
			}
			ss.Instances = append(ss.Instances, is)
		}
		snap.Stages = append(snap.Stages, ss)
	}
	for _, st := range sys.Quarantined() {
		snap.Quarantined = append(snap.Quarantined, st.Name())
	}
	sort.Strings(snap.Quarantined)
	if stats != nil {
		var tails [len(snapshotGrid)]time.Duration
		snap.Window.Latency, snap.Window.OK = stats.WindowLatency()
		stats.WindowTails(snapshotGrid[:], tails[:])
		snap.Window.P50, snap.Window.P90, snap.Window.P99, snap.Window.P999 = tails[0], tails[1], tails[2], tails[3]
	}
	return snap
}

// Validate checks the snapshot's schema version and physics tables.
func (s *Snapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot schema v%d, this build reads v%d", s.Version, SnapshotVersion)
	}
	if err := s.Power.Validate(); err != nil {
		return fmt.Errorf("core: snapshot power table: %w", err)
	}
	for i := range s.Stages {
		if err := s.Stages[i].Profile.Validate(); err != nil {
			return fmt.Errorf("core: snapshot stage %s profile: %w", s.Stages[i].Name, err)
		}
	}
	return nil
}

// SnapshotView serves a Snapshot back as a live-looking deployment: it
// implements both System and StatsReader over purely in-memory state, so a
// Planner re-run against it decides from exactly the recorded inputs and a
// ShadowExecutor can actuate the resulting plan without any hardware or RPC
// reachable. Mutations (levels, clones, withdraws) stay inside the view.
type SnapshotView struct {
	snap   *Snapshot
	model  cmp.TableModel
	stages []*shadowStage
	ctl    []StageControl // the same stages as the System surface hands them out
	draw   cmp.Watts
	free   int
	clones int
}

// NewSnapshotView builds the shadow deployment from a capture. The snapshot
// itself is not retained mutably — instance state is copied out.
func NewSnapshotView(snap *Snapshot) *SnapshotView {
	v := &SnapshotView{
		snap:  snap,
		model: snap.Power,
		draw:  snap.Draw,
		free:  snap.FreeCores,

		stages: make([]*shadowStage, 0, len(snap.Stages)),
		ctl:    make([]StageControl, 0, len(snap.Stages)),
	}
	for i := range snap.Stages {
		ss := &snap.Stages[i]
		st := &shadowStage{view: v, name: ss.Name, canScale: ss.CanScale, profile: ss.Profile}
		st.ins = make([]*shadowInstance, 0, len(ss.Instances))
		for _, is := range ss.Instances {
			st.ins = append(st.ins, &shadowInstance{stage: st, InstanceSnap: is})
		}
		v.stages = append(v.stages, st)
		v.ctl = append(v.ctl, st)
	}
	return v
}

// Now implements System.
func (v *SnapshotView) Now() time.Duration { return v.snap.Now }

// Stages implements System.
func (v *SnapshotView) Stages() []StageControl { return v.ctl }

// Quarantined implements System. Quarantined stages were captured by name
// only — their instances were unreachable at record time — so the shadow
// reports none, exactly like the capture's Stages() excluded them.
func (v *SnapshotView) Quarantined() []StageControl { return nil }

// PowerModel implements System.
func (v *SnapshotView) PowerModel() cmp.PowerModel { return &v.model }

// Budget implements System.
func (v *SnapshotView) Budget() cmp.Watts { return v.snap.Budget }

// Draw implements System.
func (v *SnapshotView) Draw() cmp.Watts { return v.draw }

// Headroom implements System.
func (v *SnapshotView) Headroom() cmp.Watts { return v.snap.Budget - v.draw }

// FreeCores implements System.
func (v *SnapshotView) FreeCores() int {
	if v.free < 0 {
		return 0
	}
	return v.free
}

// InstStats implements StatsReader from the captured per-instance windows.
// Instances minted in shadow (clones) have no recorded statistics.
func (v *SnapshotView) InstStats(name string) (queuing, serving time.Duration, ok bool) {
	for _, st := range v.stages {
		for _, in := range st.ins {
			if in.InstanceSnap.Name == name {
				return in.Queuing, in.Serving, in.StatsOK
			}
		}
	}
	return 0, 0, false
}

// WindowLatency implements StatsReader.
func (v *SnapshotView) WindowLatency() (time.Duration, bool) {
	return v.snap.Window.Latency, v.snap.Window.OK
}

// WindowTail implements StatsReader: the captured quantile grid point at or
// above p. Captures hold p50/p90/p99/p999 — the grid every consumer in this
// repo reads.
func (v *SnapshotView) WindowTail(p float64) (time.Duration, bool) {
	w := v.snap.Window
	if !w.OK {
		return 0, false
	}
	switch {
	case p <= 0.5:
		return w.P50, true
	case p <= 0.9:
		return w.P90, true
	case p <= 0.99:
		return w.P99, true
	default:
		return w.P999, true
	}
}

// WindowTails implements StatsReader over the same captured grid.
func (v *SnapshotView) WindowTails(ps []float64, out []time.Duration) bool {
	for i, p := range ps {
		out[i], _ = v.WindowTail(p)
	}
	return v.snap.Window.OK
}

// shadowStage is the in-memory StageControl of a SnapshotView.
type shadowStage struct {
	view     *SnapshotView
	name     string
	canScale bool
	profile  cmp.TableProfile
	ins      []*shadowInstance
}

// Name implements StageControl.
func (s *shadowStage) Name() string { return s.name }

// CanScale implements StageControl.
func (s *shadowStage) CanScale() bool { return s.canScale }

// Profile implements StageControl.
func (s *shadowStage) Profile() cmp.SpeedupProfile { return &s.profile }

// Instances implements StageControl.
func (s *shadowStage) Instances() []Instance {
	out := make([]Instance, len(s.ins))
	for i, in := range s.ins {
		out[i] = in
	}
	return out
}

// Clone implements StageControl: a new shadow instance at the bottleneck's
// level stealing half its queue, charged against the captured budget.
func (s *shadowStage) Clone(bottleneck Instance) (Instance, error) {
	if !s.canScale {
		return nil, fmt.Errorf("core: shadow stage %s cannot scale", s.name)
	}
	if s.view.free <= 0 {
		return nil, cmp.ErrNoFreeCore
	}
	src := s.find(bottleneck.Name())
	if src == nil {
		return nil, fmt.Errorf("core: shadow stage %s has no instance %s", s.name, bottleneck.Name())
	}
	p := s.view.model.Power(src.InstanceSnap.Level)
	if s.view.draw+p > s.view.snap.Budget+1e-9 {
		return nil, cmp.ErrBudgetExceeded
	}
	s.view.clones++
	stolen := src.InstanceSnap.QueueLen / 2
	src.InstanceSnap.QueueLen -= stolen
	clone := &shadowInstance{stage: s, InstanceSnap: InstanceSnap{
		Name:     fmt.Sprintf("%s+shadow%d", src.InstanceSnap.Name, s.view.clones),
		QueueLen: stolen,
		Level:    src.InstanceSnap.Level,
	}}
	s.ins = append(s.ins, clone)
	s.view.draw += p
	s.view.free--
	return clone, nil
}

// Withdraw implements StageControl: drain victim, push its queue to target
// (or the stage's first survivor), refund its power and core.
func (s *shadowStage) Withdraw(victim, target Instance) error {
	idx := -1
	for i, in := range s.ins {
		if in.InstanceSnap.Name == victim.Name() {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: shadow stage %s has no instance %s", s.name, victim.Name())
	}
	if len(s.ins) < 2 {
		return fmt.Errorf("core: shadow stage %s cannot withdraw its last instance", s.name)
	}
	v := s.ins[idx]
	s.ins = append(s.ins[:idx], s.ins[idx+1:]...)
	var tgt *shadowInstance
	if target != nil {
		tgt = s.find(target.Name())
	}
	if tgt == nil {
		tgt = s.ins[0]
	}
	tgt.InstanceSnap.QueueLen += v.InstanceSnap.QueueLen
	s.view.draw -= s.view.model.Power(v.InstanceSnap.Level)
	if s.view.draw < 0 {
		s.view.draw = 0
	}
	s.view.free++
	return nil
}

// find returns the shadow instance by name, or nil.
func (s *shadowStage) find(name string) *shadowInstance {
	for _, in := range s.ins {
		if in.InstanceSnap.Name == name {
			return in
		}
	}
	return nil
}

// shadowInstance is the in-memory Instance of a SnapshotView.
type shadowInstance struct {
	stage *shadowStage
	InstanceSnap
}

// Name implements Instance.
func (in *shadowInstance) Name() string { return in.InstanceSnap.Name }

// StageName implements Instance.
func (in *shadowInstance) StageName() string { return in.stage.name }

// QueueLen implements Instance.
func (in *shadowInstance) QueueLen() int { return in.InstanceSnap.QueueLen }

// Level implements Instance.
func (in *shadowInstance) Level() cmp.Level { return in.InstanceSnap.Level }

// SetLevel implements Instance, enforcing the captured budget with the
// chip's acceptance test.
func (in *shadowInstance) SetLevel(l cmp.Level) error {
	if !l.Valid() {
		return fmt.Errorf("core: shadow set-level %s: invalid level %d", in.InstanceSnap.Name, int(l))
	}
	v := in.stage.view
	delta := v.model.Power(l) - v.model.Power(in.InstanceSnap.Level)
	if v.draw+delta > v.snap.Budget+1e-9 {
		return cmp.ErrBudgetExceeded
	}
	v.draw += delta
	in.InstanceSnap.Level = l
	return nil
}

// Utilization implements Instance.
func (in *shadowInstance) Utilization() float64 { return in.InstanceSnap.Utilization }

// ResetUtilizationEpoch implements Instance.
func (in *shadowInstance) ResetUtilizationEpoch() { in.InstanceSnap.Utilization = 0 }

var (
	_ System      = (*SnapshotView)(nil)
	_ StatsReader = (*SnapshotView)(nil)
)
