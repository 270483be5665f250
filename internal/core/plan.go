package core

import (
	"errors"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/stage"
)

// The steps a PlanView refuses besides the chip's own (cmp.ErrNoFreeCore,
// cmp.ErrBudgetExceeded). Planners only test a refusal for nil and try the
// next step, so it carries no per-step message to format.
var (
	errPlanNotLive      = errors.New("core: plan: instance not live in the plan")
	errPlanCannotScale  = errors.New("core: plan: stage cannot scale")
	errPlanLastInstance = errors.New("core: plan: cannot withdraw a stage's last instance")
	errPlanInvalidLevel = errors.New("core: plan: invalid frequency level")
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
// slabs — one planStage array, and one planInstance, one pointer and one
// Instance array for every stage's instances — and a reference to an
// underlying instance is resolved by a linear identity scan: a view never
// holds more instances than the chip has cores.
//
// A planner keeps one view and resets it every tick (DESIGN.md §5l): the
// slabs, the ranking rows, the plan and its actions are reused, so the plan
// a view hands out, its actions and its wrappers are valid only until the
// next reset. A copied view starts from empty slabs instead of sharing the
// original's.
type PlanView struct {
	base   System
	model  cmp.PowerModel
	budget cmp.Watts
	drawn  cmp.Watts
	free   int

	plan     ActionPlan
	reason   ActionReason
	reshaped bool // a clone or withdraw was planned: instance lists moved
	stages   []StageControl
	slab     []planStage    // backs stages
	wrapped  []planInstance // every stage's underlying instances, in stage order
	ptrs     []*planInstance
	views    []Instance // the wrappers as Instances, in stage order

	ranked []Ranked // Rank's rows

	// Action values, handed out by pointer and reused by the next reset.
	levels    []SetLevelAction
	clones    []CloneAction
	withdraws []WithdrawAction
	resets    []ResetEpochAction

	self *PlanView // the view that built the slabs; a copy differs
}

// NewPlanView snapshots the system's power accounting, stage list and
// instance lists, and starts an empty plan. It is the one-shot form of the
// Reset a planner's own view goes through every tick.
func NewPlanView(sys System) *PlanView {
	pv := new(PlanView)
	pv.Reset(sys)
	return pv
}

// Reset points the view at sys as it is now, with an empty plan, reusing
// every slab the previous tick grew. A planner that keeps one view — the
// zero PlanView is ready for it — resets it at the start of every Plan.
func (pv *PlanView) Reset(sys System) {
	if pv.self != pv {
		*pv = PlanView{self: pv}
	}
	pv.base = sys
	pv.model, pv.budget, pv.drawn, pv.free = sys.PowerModel(), sys.Budget(), sys.Draw(), sys.FreeCores()
	clear(pv.plan.Actions)
	pv.plan = ActionPlan{Actions: pv.plan.Actions[:0]}
	pv.reason, pv.reshaped = ReasonBoost, false
	pv.levels = clearSlab(pv.levels)
	pv.clones = clearSlab(pv.clones)
	pv.withdraws = clearSlab(pv.withdraws)
	pv.resets = clearSlab(pv.resets)

	under := sys.Stages()
	var buf [8][]Instance
	lists, n := instanceLists(under, &buf)
	pv.slab = resize(pv.slab, len(under))
	pv.stages = resize(pv.stages, len(under))
	pv.wrapped = resize(pv.wrapped, n)
	pv.ptrs = resize(pv.ptrs, n)
	pv.views = resize(pv.views, n)
	if pv.plan.Actions == nil { // a DVFS step per instance fits without growing
		pv.plan.Actions, pv.levels = make([]Action, 0, n), make([]SetLevelAction, 0, n)
	}
	k := 0
	for i, st := range under {
		ps := &pv.slab[i]
		lo := k
		for _, in := range lists[i] {
			pv.wrapped[k] = planInstance{pv: pv, under: in, stage: ps, level: in.Level()}
			pv.ptrs[k], pv.views[k] = &pv.wrapped[k], &pv.wrapped[k]
			k++
		}
		// Capacity-capped: a planned clone reallocates instead of writing
		// into the next stage's share.
		*ps = planStage{pv: pv, under: st, ins: pv.ptrs[lo:k:k], view: pv.views[lo:k:k]}
		pv.stages[i] = ps
	}
}

// resize returns s with length n, reusing its array when it is large enough.
// Elements past the old length hold whatever the last use left; callers
// overwrite all n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// clearSlab empties a slab of action values for reuse, dropping the
// references the last tick's actions held.
func clearSlab[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// nextIn appends a zero value to a slab and returns a pointer to it. A slab
// that grows moves to a new array; values handed out before stay where they
// are.
func nextIn[T any](s *[]T) *T {
	var zero T
	*s = append(*s, zero)
	return &(*s)[len(*s)-1]
}

// instances returns every live instance of the view in stage order. Until a
// clone or withdraw is planned that is the view's own slab, no copy made.
func (pv *PlanView) instances() []Instance {
	if !pv.reshaped {
		return pv.views
	}
	return Instances(pv)
}

// Take returns the recorded plan. The view stays usable; further mutations
// keep appending to the same plan.
func (pv *PlanView) Take() *ActionPlan { return &pv.plan }

// Rank runs bottleneck identification (Equation 1) over the view and notes
// the bottleneck and spread on the plan, for the tick's record. The ranking
// is the view's own rows, valid until the next reset.
func (pv *PlanView) Rank(m Metric, stats StatsReader) []Ranked {
	var buf [8][]Instance
	lists, n := instanceLists(pv.stages, &buf)
	if n == 0 {
		return nil
	}
	pv.ranked = resize(pv.ranked, n)
	ranked := pv.ranked
	Identifier{Metric: m}.rankInto(ranked, pv.stages, lists, stats)
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
		return nil, errPlanNotLive
	}
	if !ps.under.CanScale() {
		return nil, errPlanCannotScale
	}
	if pv.free <= 0 {
		return nil, cmp.ErrNoFreeCore
	}
	p := pv.model.Power(src.level)
	if pv.drawn+p > pv.budget+1e-9 {
		return nil, cmp.ErrBudgetExceeded
	}
	clone := &planInstance{
		pv:       pv,
		stage:    ps,
		name:     src.Name() + "+clone",
		level:    src.level,
		queueLen: src.QueueLen() / 2,
	}
	act := nextIn(&pv.clones)
	*act = CloneAction{Stage: ps.under, Source: src.handle(), Level: src.level, Reason: pv.reason, ref: clone}
	pv.plan.Actions = append(pv.plan.Actions, act)
	pv.drawn += p
	pv.free--
	ps.ins = append(ps.ins, clone)
	ps.view = nil
	pv.reshaped = true
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
		return errPlanNotLive
	}
	if len(ps.Instances()) <= 1 {
		return errPlanLastInstance
	}
	var tgt Instance
	if target != nil {
		if tp := ps.lookup(target); tp != nil {
			tgt = tp.handle()
		} else {
			tgt = target
		}
	}
	act := nextIn(&pv.withdraws)
	*act = WithdrawAction{Stage: ps.under, Victim: v.handle(), Target: tgt}
	pv.plan.Actions = append(pv.plan.Actions, act)
	v.withdrawn = true
	v.stage.view = nil
	pv.reshaped = true
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

// Slot is the record slot of the underlying instance (0 for none, and for
// planned clones), by which the aggregator finds its statistics. Only a DES
// instance carries one, matched by concrete type as instStatsAt does.
func (pi *planInstance) Slot() uint32 {
	if in, ok := pi.under.(*stage.Instance); ok {
		return in.Slot()
	}
	return 0
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
	act := nextIn(&pi.pv.resets)
	act.Instance = pi.handle()
	pi.pv.plan.Actions = append(pi.pv.plan.Actions, act)
}

// SetLevel implements Instance: replicates the stage-layer no-op shortcut
// and the chip's validity and budget acceptance tests, then records the
// transition.
func (pi *planInstance) SetLevel(l cmp.Level) error {
	pv := pi.pv
	if pi.withdrawn {
		return errPlanNotLive
	}
	if l == pi.level {
		return nil
	}
	if !l.Valid() {
		return errPlanInvalidLevel
	}
	delta := pv.model.Power(l) - pv.model.Power(pi.level)
	if pv.drawn+delta > pv.budget+1e-9 {
		return cmp.ErrBudgetExceeded
	}
	act := nextIn(&pv.levels)
	*act = SetLevelAction{Instance: pi.handle(), From: pi.level, To: l, Reason: pv.reason}
	pv.plan.Actions = append(pv.plan.Actions, act)
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
