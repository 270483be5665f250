package core

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
)

// PlanView is a System overlay for the decision path: every read reflects
// the underlying deployment plus the mutations planned so far, and every
// mutation is recorded into an ActionPlan instead of being applied. The
// budget arithmetic replicates cmp.Chip exactly — drawn watts maintained
// incrementally, acceptance tested as drawn+delta > budget+1e-9 — so a
// decision computed against a PlanView is bit-identical to one computed
// against the live chip, which is what keeps the DES golden figures stable
// across the plan/apply split.
//
// Wrappers are unique: the same underlying instance always yields the same
// planInstance, so the interface-identity comparisons the decision kernel
// relies on (donor exclusion, bottleneck checks) keep working. They live in
// slabs built once per view — one planStage array, and one planInstance,
// one pointer and one Instance array for every stage's instances — and a
// reference to an underlying instance is resolved by a linear identity scan:
// a view never holds more instances than the chip has cores.
type PlanView struct {
	base   System
	model  cmp.PowerModel
	budget cmp.Watts
	drawn  cmp.Watts
	free   int

	plan    *ActionPlan
	reason  ActionReason
	stages  []StageControl
	slab    []planStage    // backs stages
	wrapped []planInstance // every stage's underlying instances, in stage order
}

// NewPlanView snapshots the system's power accounting, stage list and
// instance lists, and starts an empty plan.
func NewPlanView(sys System) *PlanView {
	pv := &PlanView{
		base:   sys,
		model:  sys.PowerModel(),
		budget: sys.Budget(),
		drawn:  sys.Draw(),
		free:   sys.FreeCores(),
		plan:   &ActionPlan{},
	}
	under := sys.Stages()
	var buf [8][]Instance
	lists, n := instanceLists(under, &buf)
	pv.slab = make([]planStage, len(under))
	pv.stages = make([]StageControl, len(under))
	pv.wrapped = make([]planInstance, n)
	ptrs, views := make([]*planInstance, n), make([]Instance, n)
	k := 0
	for i, st := range under {
		ps := &pv.slab[i]
		lo := k
		for _, in := range lists[i] {
			pv.wrapped[k] = planInstance{pv: pv, under: in, stage: ps, level: in.Level()}
			ptrs[k], views[k] = &pv.wrapped[k], &pv.wrapped[k]
			k++
		}
		// Capacity-capped: a planned clone reallocates instead of writing
		// into the next stage's share.
		*ps = planStage{pv: pv, under: st, ins: ptrs[lo:k:k], view: views[lo:k:k]}
		pv.stages[i] = ps
	}
	return pv
}

// Take returns the recorded plan. The view stays usable; further mutations
// keep appending to the same plan.
func (pv *PlanView) Take() *ActionPlan { return pv.plan }

// Rank runs bottleneck identification (Equation 1) over the view and notes
// the bottleneck and spread on the plan, for the tick's record.
func (pv *PlanView) Rank(m Metric, stats StatsReader) []Ranked {
	ranked := Identifier{Metric: m}.Rank(pv, stats)
	if len(ranked) > 0 {
		pv.plan.identified, pv.plan.spread = ranked[0], Spread(ranked)
	}
	return ranked
}

// Decided marks the plan a boosting decision, whose outcome the tick's
// record reports; balanced and no-data intervals leave it unmarked.
func (pv *PlanView) Decided() { pv.plan.decided = true }

// setReason switches the intent tag recorded on subsequent actions,
// returning the previous tag so callers can restore it.
func (pv *PlanView) setReason(r ActionReason) ActionReason {
	old := pv.reason
	pv.reason = r
	return old
}

// Now implements System.
func (pv *PlanView) Now() time.Duration { return pv.base.Now() }

// PowerModel implements System.
func (pv *PlanView) PowerModel() cmp.PowerModel { return pv.model }

// Budget implements System.
func (pv *PlanView) Budget() cmp.Watts { return pv.budget }

// Draw implements System: the snapshotted draw plus planned deltas.
func (pv *PlanView) Draw() cmp.Watts { return pv.drawn }

// Headroom implements System.
func (pv *PlanView) Headroom() cmp.Watts { return pv.budget - pv.drawn }

// FreeCores implements System.
func (pv *PlanView) FreeCores() int { return pv.free }

// Stages implements System.
func (pv *PlanView) Stages() []StageControl { return pv.stages }

// Quarantined implements System.
func (pv *PlanView) Quarantined() []StageControl { return pv.base.Quarantined() }

// planStage wraps one real stage: its instances as the view found them, then
// planned clones, and the Instances() view of those not withdrawn.
type planStage struct {
	pv    *PlanView
	under StageControl
	ins   []*planInstance
	view  []Instance // nil after a planned clone or withdraw until rebuilt
}

// Name implements StageControl.
func (ps *planStage) Name() string { return ps.under.Name() }

// CanScale implements StageControl.
func (ps *planStage) CanScale() bool { return ps.under.CanScale() }

// Profile implements StageControl.
func (ps *planStage) Profile() cmp.SpeedupProfile { return ps.under.Profile() }

// Instances implements StageControl: the snapshot minus planned withdraws
// plus planned clones.
func (ps *planStage) Instances() []Instance {
	if ps.view == nil {
		ps.view = make([]Instance, 0, len(ps.ins))
		for _, pi := range ps.ins {
			if !pi.withdrawn {
				ps.view = append(ps.view, pi)
			}
		}
	}
	return ps.view
}

// lookup resolves an instance reference to its wrapper: a wrapper resolves
// to itself, an underlying instance to the wrapper some stage of the view
// (this one included) snapshotted it into, anything else to nil.
func (ps *planStage) lookup(in Instance) *planInstance {
	if pi, ok := in.(*planInstance); ok {
		return pi
	}
	for i := range ps.pv.wrapped {
		if pi := &ps.pv.wrapped[i]; pi.under == in {
			return pi
		}
	}
	return nil
}

// Clone implements StageControl: records a CloneAction and returns a
// placeholder instance charged against the planned budget, replicating the
// chip's free-core and budget acceptance tests.
func (ps *planStage) Clone(bn Instance) (Instance, error) {
	pv := ps.pv
	src := ps.lookup(bn)
	if src == nil || src.withdrawn {
		return nil, fmt.Errorf("core: plan: clone source %s not live in stage %s", bn.Name(), ps.Name())
	}
	if !ps.under.CanScale() {
		return nil, fmt.Errorf("core: plan: stage %s cannot scale", ps.Name())
	}
	if pv.free <= 0 {
		return nil, cmp.ErrNoFreeCore
	}
	p := pv.model.Power(src.level)
	if pv.drawn+p > pv.budget+1e-9 {
		return nil, fmt.Errorf("%w: planned clone needs %.2fW, headroom %.2fW", cmp.ErrBudgetExceeded, float64(p), float64(pv.Headroom()))
	}
	clone := &planInstance{
		pv:       pv,
		stage:    ps,
		name:     src.Name() + "+clone",
		level:    src.level,
		queueLen: src.QueueLen() / 2,
	}
	pv.plan.Actions = append(pv.plan.Actions, &CloneAction{
		Stage:  ps.under,
		Source: src.handle(),
		Level:  src.level,
		Reason: pv.reason,
		ref:    clone,
	})
	pv.drawn += p
	pv.free--
	ps.ins = append(ps.ins, clone)
	ps.view = nil
	return clone, nil
}

// Withdraw implements StageControl: records a WithdrawAction and refunds the
// victim's power to the planned budget (the chip refunds on release; the
// DES defers the refund while the victim drains, but no decision path reads
// headroom between an in-plan withdraw and the end of the pass).
func (ps *planStage) Withdraw(victim, target Instance) error {
	pv := ps.pv
	v := ps.lookup(victim)
	if v == nil || v.withdrawn {
		return fmt.Errorf("core: plan: withdraw of unknown instance %s", victim.Name())
	}
	if len(ps.Instances()) <= 1 {
		return fmt.Errorf("core: plan: cannot withdraw the last instance of stage %s", ps.Name())
	}
	var tgt Instance
	if target != nil {
		if tp := ps.lookup(target); tp != nil {
			tgt = tp.handle()
		} else {
			tgt = target
		}
	}
	pv.plan.Actions = append(pv.plan.Actions, &WithdrawAction{Stage: ps.under, Victim: v.handle(), Target: tgt})
	v.withdrawn = true
	v.stage.view = nil
	pv.drawn -= pv.model.Power(v.level)
	if pv.drawn < 0 {
		pv.drawn = 0
	}
	pv.free++
	return nil
}

// planInstance overlays one instance. under is nil for planned clones; the
// Executor binds those to the realized instance at apply time.
type planInstance struct {
	pv        *PlanView
	under     Instance
	stage     *planStage
	name      string // placeholder for planned clones
	level     cmp.Level
	queueLen  int // snapshot for planned clones
	withdrawn bool
}

// handle is what actions reference: the real instance when one exists, the
// placeholder otherwise.
func (pi *planInstance) handle() Instance {
	if pi.under != nil {
		return pi.under
	}
	return pi
}

// Name implements Instance.
func (pi *planInstance) Name() string {
	if pi.under != nil {
		return pi.under.Name()
	}
	return pi.name
}

// StageName implements Instance.
func (pi *planInstance) StageName() string { return pi.stage.Name() }

// QueueLen implements Instance.
func (pi *planInstance) QueueLen() int {
	if pi.under != nil {
		return pi.under.QueueLen()
	}
	return pi.queueLen
}

// Level implements Instance: the planned level.
func (pi *planInstance) Level() cmp.Level { return pi.level }

// Utilization implements Instance.
func (pi *planInstance) Utilization() float64 {
	if pi.under != nil {
		return pi.under.Utilization()
	}
	return 0
}

// ResetUtilizationEpoch implements Instance: recorded as an action.
func (pi *planInstance) ResetUtilizationEpoch() {
	pi.pv.plan.Actions = append(pi.pv.plan.Actions, &ResetEpochAction{Instance: pi.handle()})
}

// SetLevel implements Instance: replicates the stage-layer no-op shortcut
// and the chip's validity and budget acceptance tests, then records the
// transition.
func (pi *planInstance) SetLevel(l cmp.Level) error {
	pv := pi.pv
	if pi.withdrawn {
		return fmt.Errorf("core: plan: DVFS on withdrawn instance %s", pi.Name())
	}
	if l == pi.level {
		return nil
	}
	if !l.Valid() {
		return fmt.Errorf("core: plan: invalid frequency level %d", int(l))
	}
	delta := pv.model.Power(l) - pv.model.Power(pi.level)
	if pv.drawn+delta > pv.budget+1e-9 {
		return fmt.Errorf("%w: planned DVFS to %d needs %.2fW, headroom %.2fW", cmp.ErrBudgetExceeded, int(l), float64(delta), float64(pv.Headroom()))
	}
	pv.plan.Actions = append(pv.plan.Actions, &SetLevelAction{Instance: pi.handle(), From: pi.level, To: l, Reason: pv.reason})
	pv.drawn += delta
	pi.level = l
	return nil
}

// Interface conformance.
var (
	_ System       = (*PlanView)(nil)
	_ StageControl = (*planStage)(nil)
	_ Instance     = (*planInstance)(nil)
)
