package core

import (
	"time"

	"powerchief/internal/cmp"
)

// BoostKind names the boosting technique applied at one control interval.
type BoostKind int

const (
	// BoostNone means no action was taken (balanced system, or nothing
	// affordable).
	BoostNone BoostKind = iota
	// BoostFrequency raised the bottleneck core's DVFS level (§5.2).
	BoostFrequency
	// BoostInstance cloned the bottleneck instance (§5.1).
	BoostInstance
)

// String implements fmt.Stringer.
func (k BoostKind) String() string {
	switch k {
	case BoostNone:
		return "none"
	case BoostFrequency:
		return "freq-boost"
	case BoostInstance:
		return "inst-boost"
	default:
		return "unknown-boost"
	}
}

// BoostOutcome reports what the decision engine did at one interval.
type BoostOutcome struct {
	Kind        BoostKind
	Target      string // bottleneck instance name
	OldLevel    cmp.Level
	NewLevel    cmp.Level // set for frequency boosts
	NewInstance string    // set for instance boosts
	Recycled    cmp.Watts // power recycled from donors this interval
	TInst       time.Duration
	TFreq       time.Duration
}

// EstimateInstBoost is Equation 2: the expected delay of the bottleneck
// after cloning it — half the queued work is offloaded so queuing shrinks by
// half, serving speed is unchanged:
//
//	T_inst = (L−1)(q̄+s̄)/2 + s̄
func EstimateInstBoost(r Ranked) time.Duration {
	if r.QueueLen < 1 {
		return r.Serving
	}
	qs := float64(r.Queuing + r.Serving)
	return time.Duration(float64(r.QueueLen-1)*qs/2) + r.Serving
}

// EstimateFreqBoost is Equation 3: the expected delay of the bottleneck
// after raising its frequency from `from` to `to` — both queuing and serving
// shrink by the profiled latency-reduction ratio α:
//
//	T_freq = α_lh · ((L−1)(q̄+s̄) + s̄)
func EstimateFreqBoost(r Ranked, p cmp.SpeedupProfile, from, to cmp.Level) time.Duration {
	alpha := cmp.Alpha(p, from, to)
	var full float64
	if r.QueueLen >= 1 {
		full = float64(r.QueueLen-1)*float64(r.Queuing+r.Serving) + float64(r.Serving)
	} else {
		full = float64(r.Serving)
	}
	return time.Duration(alpha * full)
}

// Engine is the adaptive boosting decision engine (§5.3, Algorithm 1). It
// quantitatively estimates the expected delay of the bottleneck under both
// boosting techniques at equivalent power cost and applies the better one,
// recycling power from the fastest instances when the headroom falls short.
type Engine struct {
	Recycler Recycler

	// DisableSplitClone turns off the split-clone refinement (see
	// trySplitClone), restoring the literal Algorithm 1 behaviour. Used by
	// the ablation benchmarks.
	DisableSplitClone bool
}

// SelectBoosting runs Algorithm 1 against the current ranking (bottleneck
// first). It mutates the system — donor DVFS steps, the chosen boost — and
// reports the outcome. A BoostNone outcome with no error means the system
// offered nothing to do (bottleneck already at the maximum with no scaling
// opportunity).
func (e Engine) SelectBoosting(sys System, ranked []Ranked) BoostOutcome {
	bn := ranked[0]
	model := sys.PowerModel()
	cur := bn.Instance.Level()
	profile := bn.Stage.Profile()

	// p: the power cost of instance boosting — a clone runs at the
	// bottleneck's frequency.
	p := model.Power(cur)
	out := BoostOutcome{Kind: BoostNone, Target: bn.Instance.Name(), OldLevel: cur, NewLevel: cur}

	// The frequency level equivalent in power to launching a new instance,
	// used for the fair comparison of Equations 2 and 3 (§5.2).
	fEquiv, _ := cmp.HighestAffordable(model, model.Power(cur)+p)
	if fEquiv < cur {
		fEquiv = cur
	}

	var donorBuf [rankOnStack]Instance
	donors := appendDonors(donorBuf[:0], ranked, bn.Instance)

	// Decide the preferred technique. Launching an instance barely helps a
	// queue of two or less (line 14 of Algorithm 1), and is impossible for
	// fan-out stages or when no physical core is free.
	wantInstance := false
	if bn.QueueLen > 2 && bn.Stage.CanScale() && sys.FreeCores() > 0 {
		out.TInst = EstimateInstBoost(bn)
		out.TFreq = EstimateFreqBoost(bn, profile, cur, fEquiv)
		wantInstance = out.TInst < out.TFreq
	}

	if wantInstance {
		if need := p - sys.Headroom(); need > 0 {
			out.Recycled += e.recycle(sys, model, donors, need)
		}
		if sys.Headroom()+1e-9 >= p {
			if clone, err := bn.Stage.Clone(bn.Instance); err == nil {
				out.Kind = BoostInstance
				out.NewInstance = clone.Name()
				return out
			}
		}
		// Not enough power for a clone at the bottleneck's frequency.
		// Before falling back to frequency boosting (lines 11-12 of
		// Algorithm 1), estimate a *split clone*: spend the bottleneck's
		// own power plus the headroom on two instances at a lower level.
		// This covers the regime Figure 11(c) shows — many QA instances at
		// low frequencies — which the same-frequency clone rule cannot
		// reach once the bottleneck has been boosted high.
		if !e.DisableSplitClone && e.trySplitClone(sys, bn, &out) {
			return out
		}
	}

	if cur == cmp.MaxLevel {
		return out // nothing further to raise
	}
	// Frequency boosting: aim for the power-equivalent level, at least one
	// step, recycling the shortfall.
	desired := fEquiv
	if desired <= cur {
		desired = cur + 1
	}
	if need := cmp.BoostCost(model, cur, desired) - sys.Headroom(); need > 0 {
		out.Recycled += e.recycle(sys, model, donors, need)
	}
	target, ok := cmp.HighestAffordable(model, model.Power(cur)+sys.Headroom())
	if !ok || target <= cur {
		return out
	}
	if target > desired {
		target = desired
	}
	if err := bn.Instance.SetLevel(target); err != nil {
		return out
	}
	out.Kind = BoostFrequency
	out.NewLevel = target
	return out
}

// recycle runs the engine's recycler. Against a PlanView the pass's donor
// steps are tagged ReasonRecycle, so a recorded plan tells Algorithm 2's
// donors from the boost they fund.
func (e Engine) recycle(sys System, model cmp.PowerModel, donors []Instance, need cmp.Watts) cmp.Watts {
	if pv, ok := sys.(*PlanView); ok {
		defer pv.setReason(pv.setReason(ReasonRecycle))
	}
	return e.Recycler.Recycle(model, donors, need)
}

// trySplitClone evaluates and, when beneficial, applies the split-clone
// refinement: the bottleneck steps down to level l and a clone launches at
// the same l, with 2·P(l) ≤ P(cur) + headroom. The expected delay follows
// Equation 2 with serving rescaled by the profiled slowdown α(cur→l); the
// split is applied only when that estimate beats the frequency-boost
// fallback the algorithm would otherwise take. Returns true when applied
// (out is updated in place).
func (e Engine) trySplitClone(sys System, bn Ranked, out *BoostOutcome) bool {
	model := sys.PowerModel()
	cur := bn.Instance.Level()
	if sys.FreeCores() == 0 {
		return false
	}
	total := model.Power(cur) + sys.Headroom()
	l, ok := cmp.HighestAffordable(model, total/2)
	if !ok || l >= cur {
		return false
	}
	alpha := cmp.Alpha(bn.Stage.Profile(), cur, l) // > 1: slowdown
	sPrime := time.Duration(alpha * float64(bn.Serving))
	qs := float64(bn.Queuing + sPrime)
	tSplit := time.Duration(float64(bn.QueueLen-1)*qs/2) + sPrime

	// The fallback frequency boost uses only the headroom.
	fallback, okf := cmp.HighestAffordable(model, model.Power(cur)+sys.Headroom())
	if okf && fallback > cur {
		if tFallback := EstimateFreqBoost(bn, bn.Stage.Profile(), cur, fallback); tFallback <= tSplit {
			return false
		}
	}
	if err := bn.Instance.SetLevel(l); err != nil {
		return false
	}
	clone, err := bn.Stage.Clone(bn.Instance)
	if err != nil {
		// Restore: the power just freed still covers the original level.
		_ = bn.Instance.SetLevel(cur)
		return false
	}
	out.Kind = BoostInstance
	out.NewInstance = clone.Name()
	out.NewLevel = l
	return true
}

// FreqBoostToMax raises the bottleneck toward the maximum level, recycling
// from the donors as needed. This is the pure frequency-boosting baseline
// (§7.1): it "consistently increases the frequency of the service instance
// identified as bottleneck".
func (e Engine) FreqBoostToMax(sys System, ranked []Ranked) BoostOutcome {
	bn := ranked[0]
	model := sys.PowerModel()
	cur := bn.Instance.Level()
	out := BoostOutcome{Kind: BoostNone, Target: bn.Instance.Name(), OldLevel: cur, NewLevel: cur}
	if cur == cmp.MaxLevel {
		return out
	}
	var donorBuf [rankOnStack]Instance
	donors := appendDonors(donorBuf[:0], ranked, bn.Instance)
	if need := cmp.BoostCost(model, cur, cmp.MaxLevel) - sys.Headroom(); need > 0 {
		out.Recycled += e.recycle(sys, model, donors, need)
	}
	target, ok := cmp.HighestAffordable(model, model.Power(cur)+sys.Headroom())
	if !ok || target <= cur {
		return out
	}
	if err := bn.Instance.SetLevel(target); err != nil {
		return out
	}
	out.Kind = BoostFrequency
	out.NewLevel = target
	return out
}

// InstBoostAlways clones the bottleneck if power and cores permit, recycling
// as needed. This is the pure instance-boosting baseline (§7.1): when no
// power can be recycled any more — every instance already at the lowest
// frequency — it gets stuck, the limitation PowerChief's instance withdraw
// overcomes (§8.2).
func (e Engine) InstBoostAlways(sys System, ranked []Ranked) BoostOutcome {
	bn := ranked[0]
	model := sys.PowerModel()
	cur := bn.Instance.Level()
	out := BoostOutcome{Kind: BoostNone, Target: bn.Instance.Name(), OldLevel: cur, NewLevel: cur}
	if !bn.Stage.CanScale() || sys.FreeCores() == 0 {
		return out
	}
	p := model.Power(cur)
	var donorBuf [rankOnStack]Instance
	donors := appendDonors(donorBuf[:0], ranked, bn.Instance)
	if need := p - sys.Headroom(); need > 0 {
		out.Recycled += e.recycle(sys, model, donors, need)
	}
	if sys.Headroom()+1e-9 < p {
		// The clone would not fit even at the bottleneck's frequency. Try
		// the cheapest possible clone: lower the bottleneck's own level is
		// not allowed (it would slow the bottleneck), so give up.
		return out
	}
	clone, err := bn.Stage.Clone(bn.Instance)
	if err != nil {
		return out
	}
	out.Kind = BoostInstance
	out.NewInstance = clone.Name()
	return out
}
