package core

import (
	"time"

	"powerchief/internal/cmp"
)

// The QoS power-conservation policies of §8.4: resources are over-
// provisioned for the latency target, and the policy's job is the dual of
// boosting — trade the latency slack for power savings without violating
// the QoS.

// Pegasus reimplements the power-conservation policy of Lo et al. [34]
// inside the framework: a feedback controller on the application's average
// latency that adjusts power stage-agnostically — every instance is treated
// indifferently, and only frequency (de)boosting is used (Table 3). The
// thresholds mirror Pegasus's bands: violation triggers maximum power,
// near-target holds, and comfortable slack steps power down.
type Pegasus struct {
	QoS time.Duration

	// HoldIntervals is the cool-down after a QoS violation: Pegasus keeps
	// the whole deployment at maximum power for this many adjust intervals
	// before re-engaging power savings, as in Lo et al.'s controller. Zero
	// defaults to 6.
	HoldIntervals int

	holding int
	tapHolder
}

// NewPegasus builds the policy for the given latency target.
func NewPegasus(qos time.Duration) *Pegasus {
	if qos <= 0 {
		panic("core: Pegasus needs a positive QoS target")
	}
	return &Pegasus{QoS: qos, HoldIntervals: 6}
}

// Name implements Policy.
func (*Pegasus) Name() string { return "pegasus" }

// Plan implements Planner.
func (p *Pegasus) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	pv := NewPlanView(sys)
	lat, ok := stats.WindowLatency()
	if !ok {
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}
	frac := float64(lat) / float64(p.QoS)
	ins := Instances(pv)
	out := BoostOutcome{Kind: BoostNone}
	if p.holding > 0 {
		// Cool-down after a violation: stay at maximum power.
		p.holding--
		for _, in := range ins {
			_ = in.SetLevel(cmp.MaxLevel)
		}
		return pv.Take(), out
	}
	switch {
	case frac >= 1.0:
		// QoS violation: race to maximum power and hold it there for the
		// cool-down period.
		p.holding = p.HoldIntervals
		for _, in := range ins {
			if in.Level() != cmp.MaxLevel {
				if err := in.SetLevel(cmp.MaxLevel); err == nil {
					out.Kind = BoostFrequency
				}
			}
		}
	case frac >= 0.90:
		// Close to the target: step everything up one level.
		for _, in := range ins {
			if l := in.Level(); l < cmp.MaxLevel {
				if err := in.SetLevel(l + 1); err == nil {
					out.Kind = BoostFrequency
				}
			}
		}
	case frac >= 0.85:
		// Inside the hold band: keep settings.
	default:
		// Comfortable slack: step everything down one level — uniformly,
		// because Pegasus has no notion of stages. The slowest stage limits
		// how far this can go before latency approaches the target.
		for _, in := range ins {
			if l := in.Level(); l > 0 {
				_ = in.SetLevel(l - 1)
			}
		}
	}
	return pv.Take(), out
}

// Adjust implements Policy.
func (p *Pegasus) Adjust(sys System, agg *Aggregator) BoostOutcome {
	out, _ := Tick(p, Executor{}, p.tap, sys, agg)
	return out
}

// PowerChiefSaver is PowerChief's power-conservation mode: the opposite of
// service boosting — it identifies the *fastest* service instances across
// stages and applies frequency deboosting and instance withdraw to them,
// leaving the critical stage untouched until the QoS slack is consumed
// (§8.4). Stage awareness is exactly why it saves more than Pegasus: a
// violation is answered by boosting only the bottleneck, not by racing the
// whole deployment back to peak power.
type PowerChiefSaver struct {
	QoS time.Duration
	Cfg Config

	// SafeUtilization caps the projected per-instance utilization after a
	// withdraw: an instance is withdrawn only when the survivors of its
	// stage stay below this busy fraction. Zero defaults to 0.5.
	SafeUtilization float64

	// Withdrawn counts instances withdrawn over the run.
	Withdrawn int
	// Relaunched counts instances launched back during QoS recovery.
	Relaunched int

	cooldown int // intervals left before withdraws may resume
	Audited
	tapHolder
}

// NewPowerChiefSaver builds the policy for the given latency target.
func NewPowerChiefSaver(qos time.Duration, cfg Config) *PowerChiefSaver {
	if qos <= 0 {
		panic("core: PowerChiefSaver needs a positive QoS target")
	}
	return &PowerChiefSaver{QoS: qos, Cfg: cfg}
}

// Name implements Policy.
func (*PowerChiefSaver) Name() string { return "powerchief" }

// Plan implements Planner: one conservation interval decided against a
// PlanView. State the decision itself depends on (cooldown, hold bands) is
// advanced here; the withdraw/relaunch counters advance in Adjust once the
// plan actually applied.
func (s *PowerChiefSaver) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	pv := NewPlanView(sys)
	lat, ok := stats.WindowLatency()
	if !ok {
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}
	ranked := pv.Rank(s.Cfg.Metric, stats)
	if len(ranked) == 0 {
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}
	frac := float64(lat) / float64(s.QoS)
	switch {
	case frac >= 1.0:
		// Violation: restore the bottleneck *stage* aggressively — every
		// instance of the stage to the maximum. Still stage-scoped, unlike
		// Pegasus's whole-deployment race to peak power.
		bn := ranked[0]
		out := BoostOutcome{Kind: BoostNone, Target: bn.Instance.Name()}
		allMax := true
		for _, in := range bn.Stage.Instances() {
			if l := in.Level(); l < cmp.MaxLevel {
				allMax = false
				if err := in.SetLevel(cmp.MaxLevel); err == nil {
					out.Kind = BoostFrequency
					out.NewLevel = cmp.MaxLevel
				}
			}
		}
		if allMax && bn.Stage.CanScale() && pv.FreeCores() > 0 {
			// The whole stage already runs at peak: restore capacity that
			// withdraw recycled earlier by launching an instance back.
			old := pv.setReason(ReasonRelaunch)
			if clone, err := bn.Stage.Clone(bn.Instance); err == nil {
				out.Kind = BoostInstance
				out.NewInstance = clone.Name()
			}
			pv.setReason(old)
		}
		s.cooldown = 6
		pv.Decided()
		return pv.Take(), out
	case frac >= 0.90:
		// Near the target: give the bottleneck stage one step back.
		bn := ranked[0]
		out := BoostOutcome{Kind: BoostNone, Target: bn.Instance.Name()}
		for _, in := range bn.Stage.Instances() {
			if l := in.Level(); l < cmp.MaxLevel {
				if err := in.SetLevel(l + 1); err == nil {
					out.Kind = BoostFrequency
					out.NewLevel = l + 1
				}
			}
		}
		return pv.Take(), out
	case frac >= 0.80:
		return pv.Take(), BoostOutcome{Kind: BoostNone}
	}

	// Comfortable slack: conserve power, fastest instances first.

	// Withdraw pass: recycle a whole core when a scalable stage can lose an
	// instance and keep its survivors comfortably utilized. This is the
	// estimation-driven analogue of §6.2's underutilization rule for the
	// conservation mode (one withdraw per interval so the effect is
	// observable before the next decision). Withdraws need deep slack and a
	// cooldown after any QoS recovery, so the policy does not thrash
	// between withdrawing and relaunching across bursts.
	if s.cooldown > 0 {
		s.cooldown--
	}
	if frac < 0.70 && s.cooldown == 0 {
		if name, ok := s.planWithdraw(pv, ranked); ok {
			return pv.Take(), BoostOutcome{Kind: BoostNone, Target: name}
		}
	}

	// Deboost pass: step the fastest instances down, more of them the more
	// slack remains, never touching the bottleneck.
	steps := int((0.80 - frac) * 40)
	if steps < 1 {
		steps = 1
	}
	if steps > len(ranked)-1 {
		steps = len(ranked) - 1
	}
	if steps == 0 {
		steps = 1 // single-instance system: the instance is its own slack
	}
	out := BoostOutcome{Kind: BoostNone}
	bottleneckMetric := ranked[0].Metric
	old := pv.setReason(ReasonDeboost)
	for i := 0; i < steps && i < len(ranked); i++ {
		r := ranked[len(ranked)-1-i]
		in := r.Instance
		if len(ranked) > 1 && in == ranked[0].Instance {
			continue // never slow the bottleneck
		}
		l := in.Level()
		if l == 0 {
			continue
		}
		// Estimation guard: project the instance's expected delay at the
		// lower level (Equation 1 with serving rescaled by the profiled
		// slowdown) and skip the step if it would overtake the current
		// bottleneck — deboosting must never mint a new bottleneck.
		if len(ranked) > 1 {
			alpha := cmp.Alpha(r.Stage.Profile(), l, l-1)
			projected := time.Duration(float64(r.QueueLen)*float64(r.Queuing)*alpha + float64(r.Serving)*alpha)
			if projected > bottleneckMetric {
				continue
			}
		}
		if err := in.SetLevel(l - 1); err == nil {
			out = BoostOutcome{Kind: BoostFrequency, Target: in.Name(), OldLevel: l, NewLevel: l - 1}
		}
	}
	pv.setReason(old)
	return pv.Take(), out
}

// Adjust implements Policy: the tick, then the run counters.
func (s *PowerChiefSaver) Adjust(sys System, agg *Aggregator) BoostOutcome {
	out, res := Tick(s, s.Executor(), s.tap, sys, agg)
	if res.Err == nil {
		s.Withdrawn += res.Withdrawn
		if len(res.Clones) > 0 {
			s.Relaunched++
		}
	}
	return out
}

// planWithdraw looks for a stage that can spare an instance: the projected
// utilization of the survivors stays below SafeUtilization. The stage's
// fastest (lowest-metric) instance is withdrawn, its load redirected by the
// stage dispatcher. The withdraw and the epoch resets land on the plan; the
// Executor forgets the victim's statistics when it applies.
func (s *PowerChiefSaver) planWithdraw(pv *PlanView, ranked []Ranked) (string, bool) {
	cap := s.SafeUtilization
	if cap == 0 {
		cap = 0.5
	}
	for _, st := range pv.Stages() {
		if !st.CanScale() {
			continue
		}
		ins := st.Instances()
		n := len(ins)
		if n < 2 {
			continue
		}
		var utilSum float64
		for _, in := range ins {
			utilSum += in.Utilization()
		}
		if utilSum/float64(n-1) >= cap {
			continue
		}
		// Withdraw the stage's fastest instance by metric.
		var victim Instance
		for i := len(ranked) - 1; i >= 0; i-- {
			if ranked[i].Stage.Name() == st.Name() {
				victim = ranked[i].Instance
				break
			}
		}
		if victim == nil {
			continue
		}
		if err := st.Withdraw(victim, nil); err != nil {
			continue
		}
		for _, in := range Instances(pv) {
			in.ResetUtilizationEpoch()
		}
		return victim.Name(), true
	}
	return "", false
}
