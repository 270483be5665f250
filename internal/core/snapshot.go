package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"
	"unsafe"

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
// and the live instances. The profile table is immutable and may be shared
// with every other capture of the same deployment.
type StageSnap struct {
	Name      string            `json:"name"`
	CanScale  bool              `json:"can_scale"`
	Profile   *cmp.TableProfile `json:"exec_ratio"`
	Instances []InstanceSnap    `json:"instances"`
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
// purity contract (DESIGN.md §5l) the replay engine is built on. It is also
// the StatsReader of its tick: Tick hands it to Plan, so a recorded decision
// reads the statistics the record holds. The physics tables (Power, each
// stage's Profile) are immutable and may be shared between captures.
type Snapshot struct {
	Version     int             `json:"version"`
	Now         time.Duration   `json:"now_ns"`
	Budget      cmp.Watts       `json:"budget_watts"`
	Draw        cmp.Watts       `json:"draw_watts"`
	FreeCores   int             `json:"free_cores"`
	Power       *cmp.TableModel `json:"power_watts"`
	Stages      []StageSnap     `json:"stages"`
	Quarantined []string        `json:"quarantined,omitempty"`
	Window      WindowSnap      `json:"window"`
}

// snapshotGrid is the quantile grid of WindowSnap, in field order.
var snapshotGrid = [...]float64{0.5, 0.9, 0.99, 0.999}

// CaptureSnapshot captures the decision inputs of one control tick. The
// stats reader may be nil (topology-only capture: StatsOK false everywhere).
// Systems and stages that keep their physics tables (the DES view) share
// them with every capture; any other is tabulated per capture. The capture
// is one allocation (captureBlock) unless stages are quarantined.
func CaptureSnapshot(sys System, stats StatsReader) *Snapshot {
	stages := sys.Stages()
	var buf [8][]Instance
	lists, n := instanceLists(stages, &buf)
	blk := newCaptureBlock(len(stages), n)
	snap := blk.snap
	*snap = Snapshot{
		Version:   SnapshotVersion,
		Now:       sys.Now(),
		Budget:    sys.Budget(),
		Draw:      sys.Draw(),
		FreeCores: sys.FreeCores(),
	}
	if t, ok := sys.(interface{ powerTable() *cmp.TableModel }); ok {
		snap.Power = t.powerTable()
	} else {
		snap.Power = tabulatePower(sys.PowerModel())
	}
	// An empty list stays nil, so that it encodes as before.
	if len(stages) > 0 {
		snap.Stages = blk.stages
	}
	k := 0
	for i, st := range stages {
		ss := &snap.Stages[i]
		*ss = StageSnap{Name: st.Name(), CanScale: st.CanScale()}
		if t, ok := st.(interface{ profileTable() *cmp.TableProfile }); ok {
			ss.Profile = t.profileTable()
		} else {
			ss.Profile = tabulateProfile(st.Profile())
		}
		lo := k
		for j, in := range lists[i] {
			is := &blk.ins[k]
			*is = InstanceSnap{
				Name:        in.Name(),
				QueueLen:    in.QueueLen(),
				Level:       in.Level(),
				Utilization: in.Utilization(),
			}
			if stats != nil {
				is.Queuing, is.Serving, is.StatsOK = instStatsAt(stats, i, j, in)
			}
			k++
		}
		if k > lo {
			ss.Instances = blk.ins[lo:k:k]
		}
	}
	for _, st := range sys.Quarantined() {
		snap.Quarantined = append(snap.Quarantined, st.Name())
	}
	sort.Strings(snap.Quarantined)
	if stats != nil {
		snap.Window.Latency, snap.Window.OK = stats.WindowLatency()
		// The aggregator's grid read keeps tails on the stack; another
		// reader gets a heap copy.
		var tails [len(snapshotGrid)]time.Duration
		if a, ok := stats.(*Aggregator); ok {
			a.WindowTails(snapshotGrid[:], tails[:])
		} else {
			out := make([]time.Duration, len(tails))
			stats.WindowTails(snapshotGrid[:], out)
			copy(tails[:], out)
		}
		snap.Window.P50, snap.Window.P90, snap.Window.P99, snap.Window.P999 = tails[0], tails[1], tails[2], tails[3]
	}
	return snap
}

// captureBlock is one capture's memory, carved from a single allocation:
// the Snapshot, its stages, and one flat slab holding every stage's
// instances.
type captureBlock struct {
	snap   *Snapshot
	stages []StageSnap
	ins    []InstanceSnap
}

// captureLayout is the struct type of a capture of one shape — its stage
// and instance counts — built once by reflect.StructOf so that the block
// has exactly the capture's size and a precise pointer map.
type captureLayout struct {
	typ         reflect.Type
	stages, ins uintptr // field offsets
}

var captureLayouts struct {
	sync.Mutex
	m map[[2]int]captureLayout
}

// newCaptureBlock allocates the block of a capture of nStages stages and
// nIns instances.
func newCaptureBlock(nStages, nIns int) captureBlock {
	captureLayouts.Lock()
	l, ok := captureLayouts.m[[2]int{nStages, nIns}]
	if !ok {
		t := reflect.StructOf([]reflect.StructField{
			{Name: "Snap", Type: reflect.TypeFor[Snapshot]()},
			{Name: "Stages", Type: reflect.ArrayOf(nStages, reflect.TypeFor[StageSnap]())},
			{Name: "Ins", Type: reflect.ArrayOf(nIns, reflect.TypeFor[InstanceSnap]())},
		})
		l = captureLayout{typ: t, stages: t.Field(1).Offset, ins: t.Field(2).Offset}
		if captureLayouts.m == nil {
			captureLayouts.m = make(map[[2]int]captureLayout)
		}
		captureLayouts.m[[2]int{nStages, nIns}] = l
	}
	captureLayouts.Unlock()
	p := reflect.New(l.typ).UnsafePointer()
	blk := captureBlock{snap: (*Snapshot)(p)}
	// An empty array may sit at the very end of the block: no pointer to it.
	if nStages > 0 {
		blk.stages = unsafe.Slice((*StageSnap)(unsafe.Add(p, l.stages)), nStages)
	}
	if nIns > 0 {
		blk.ins = unsafe.Slice((*InstanceSnap)(unsafe.Add(p, l.ins)), nIns)
	}
	return blk
}

// tabulatePower reads a power model into a table.
func tabulatePower(m cmp.PowerModel) *cmp.TableModel {
	t := new(cmp.TableModel)
	for l := range t {
		t[l] = m.Power(cmp.Level(l))
	}
	return t
}

// tabulateProfile reads a speedup profile into a table.
func tabulateProfile(p cmp.SpeedupProfile) *cmp.TableProfile {
	t := new(cmp.TableProfile)
	for l := range t {
		t[l] = p.ExecRatio(cmp.Level(l))
	}
	return t
}

// Validate checks the snapshot's schema version, its physics tables (present
// and well-formed) and its instances' levels.
func (s *Snapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot schema v%d, this build reads v%d", s.Version, SnapshotVersion)
	}
	if err := s.Power.Validate(); err != nil {
		return fmt.Errorf("core: snapshot power table: %w", err)
	}
	for i := range s.Stages {
		st := &s.Stages[i]
		if err := st.Profile.Validate(); err != nil {
			return fmt.Errorf("core: snapshot stage %s profile: %w", st.Name, err)
		}
		for _, in := range st.Instances {
			if !in.Level.Valid() {
				return fmt.Errorf("core: snapshot instance %s: invalid level %d", in.Name, int(in.Level))
			}
		}
	}
	return nil
}

// statsAt is InstStats for instance j of stage i of the captured system:
// read by position when the capture holds name there, by name otherwise.
func (s *Snapshot) statsAt(i, j int, name string) (queuing, serving time.Duration, ok bool) {
	if i < len(s.Stages) && j < len(s.Stages[i].Instances) {
		if in := &s.Stages[i].Instances[j]; in.Name == name {
			return in.Queuing, in.Serving, in.StatsOK
		}
	}
	return s.InstStats(name)
}

// InstStats implements StatsReader from the captured per-instance windows.
// Instances the capture does not hold (clones minted since) have none.
func (s *Snapshot) InstStats(name string) (queuing, serving time.Duration, ok bool) {
	for i := range s.Stages {
		for j := range s.Stages[i].Instances {
			if in := &s.Stages[i].Instances[j]; in.Name == name {
				return in.Queuing, in.Serving, in.StatsOK
			}
		}
	}
	return 0, 0, false
}

// WindowLatency implements StatsReader.
func (s *Snapshot) WindowLatency() (time.Duration, bool) { return s.Window.Latency, s.Window.OK }

// WindowTail implements StatsReader: the captured quantile grid point at or
// above p. Captures hold p50/p90/p99/p999 — the grid every consumer in this
// repo reads.
func (s *Snapshot) WindowTail(p float64) (time.Duration, bool) {
	w := s.Window
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
func (s *Snapshot) WindowTails(ps []float64, out []time.Duration) bool {
	for i, p := range ps {
		out[i], _ = s.WindowTail(p)
	}
	return s.Window.OK
}

// SnapshotView serves a Snapshot back as a live-looking deployment: it
// implements both System and StatsReader over purely in-memory state, so a
// Planner re-run against it decides from exactly the recorded inputs and a
// ShadowExecutor can actuate the resulting plan without any hardware or RPC
// reachable. Mutations (levels, clones, withdraws) stay inside the view.
type SnapshotView struct {
	snap   *Snapshot
	model  *cmp.TableModel
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
func (v *SnapshotView) PowerModel() cmp.PowerModel { return v.model }

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

// InstStats implements StatsReader from the capture.
func (v *SnapshotView) InstStats(name string) (queuing, serving time.Duration, ok bool) {
	return v.snap.InstStats(name)
}

// WindowLatency implements StatsReader from the capture.
func (v *SnapshotView) WindowLatency() (time.Duration, bool) { return v.snap.WindowLatency() }

// WindowTail implements StatsReader from the capture.
func (v *SnapshotView) WindowTail(p float64) (time.Duration, bool) { return v.snap.WindowTail(p) }

// WindowTails implements StatsReader from the capture.
func (v *SnapshotView) WindowTails(ps []float64, out []time.Duration) bool {
	return v.snap.WindowTails(ps, out)
}

// shadowStage is the in-memory StageControl of a SnapshotView.
type shadowStage struct {
	view     *SnapshotView
	name     string
	canScale bool
	profile  *cmp.TableProfile
	ins      []*shadowInstance
}

// Name implements StageControl.
func (s *shadowStage) Name() string { return s.name }

// CanScale implements StageControl.
func (s *shadowStage) CanScale() bool { return s.canScale }

// Profile implements StageControl.
func (s *shadowStage) Profile() cmp.SpeedupProfile { return s.profile }

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
	_ StatsReader = (*Snapshot)(nil)
)
