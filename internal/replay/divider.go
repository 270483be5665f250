package replay

import (
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// Divider is an arbiter strategy transplanted to stage level: instead of
// boosting one bottleneck instance per interval (Algorithm 1), it re-divides
// the whole chip budget across stages every tick — each stage holds its
// instance floors, the surplus is split by the strategy's weights over
// per-stage Equation 1 metrics (with per-instance breakdowns for Marginal),
// and every instance is set to the highest level its stage share affords.
// With arbiter.Fairness this is the FastCap-style fairness divider as a
// stage-level policy; with Proportional it is feed-the-bottleneck as a full
// reallocation. A plain core.Planner: one Plan function, no setter, no
// wrapper, no live-system access.
type Divider struct {
	strategy arbiter.Strategy
	cfg      core.Config
}

// NewDivider builds the policy over a weighting strategy.
func NewDivider(s arbiter.Strategy, cfg core.Config) *Divider {
	return &Divider{strategy: s, cfg: cfg}
}

// Name implements core.Planner.
func (d *Divider) Name() string { return "divider-" + d.strategy.Name() }

// Plan implements core.Planner.
func (d *Divider) Plan(sys core.System, stats core.StatsReader) (*core.ActionPlan, core.BoostOutcome) {
	none := core.BoostOutcome{Kind: core.BoostNone}
	pv := core.NewPlanView(sys)
	ranked := pv.Rank(d.cfg.Metric, stats)
	if len(ranked) == 0 || core.Spread(ranked) < d.cfg.BalanceThreshold {
		return pv.Take(), none
	}
	metric := make(map[string]time.Duration, len(ranked))
	for _, r := range ranked {
		metric[r.Instance.Name()] = r.Metric
	}

	model := pv.PowerModel()
	type stageSet struct {
		ins    []core.Instance
		floor  cmp.Watts
		budget cmp.Watts
	}
	var (
		sets      []stageSet
		members   []arbiter.Member
		floorsSum cmp.Watts
	)
	for _, st := range pv.Stages() {
		ins := st.Instances()
		if len(ins) == 0 {
			continue
		}
		var granted cmp.Watts
		var worst time.Duration
		breakdown := make([]arbiter.StageMetric, 0, len(ins))
		for _, in := range ins {
			granted += model.Power(in.Level())
			m := metric[in.Name()]
			if m > worst {
				worst = m
			}
			breakdown = append(breakdown, arbiter.StageMetric{Stage: in.Name(), Metric: m})
		}
		floor := cmp.Watts(len(ins)) * model.MinPower()
		floorsSum += floor
		sets = append(sets, stageSet{ins: ins, floor: floor})
		members = append(members, arbiter.Member{
			Granted:   granted,
			Metric:    worst,
			Weight:    float64(len(ins)),
			Breakdown: breakdown,
		})
	}
	if len(sets) == 0 {
		return pv.Take(), none
	}

	extra := pv.Budget() - floorsSum
	if extra < 0 {
		extra = 0
	}
	weights := d.strategy.Weights(members)
	var sumW float64
	for i := range weights {
		if weights[i] < 0 {
			weights[i] = 0
		}
		sumW += weights[i]
	}
	for i := range sets {
		share := cmp.Watts(0)
		if sumW > 0 {
			share = cmp.Watts(weights[i] / sumW * float64(extra))
		} else {
			share = extra / cmp.Watts(len(sets))
		}
		sets[i].budget = sets[i].floor + share
	}

	// Target level per instance: the stage share split evenly over its
	// instances. Decreases apply first so the freed watts fund the raises —
	// the same ordering discipline the fleet planner uses.
	target := func(s stageSet, in core.Instance) cmp.Level {
		per := s.budget / cmp.Watts(len(s.ins))
		lvl, ok := cmp.HighestAffordable(model, per)
		if !ok {
			return 0
		}
		return lvl
	}
	out := none
	bn := ranked[0].Instance.Name()
	for pass := 0; pass < 2; pass++ {
		for _, s := range sets {
			for _, in := range s.ins {
				to := target(s, in)
				from := in.Level()
				if to == from || (pass == 0) != (to < from) {
					continue
				}
				if err := in.SetLevel(to); err != nil {
					continue
				}
				if in.Name() == bn || out.Kind == core.BoostNone {
					out = core.BoostOutcome{Kind: core.BoostFrequency, Target: in.Name(), OldLevel: from, NewLevel: to}
				}
			}
		}
	}
	if out.Kind != core.BoostNone {
		pv.Decided()
	}
	return pv.Take(), out
}

var _ core.Planner = (*Divider)(nil)
