package replay

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// PolicyScore is one candidate's run over a trace: plan agreement with the
// recording and the projected bottleneck-delay distribution of its
// shadow-applied plans.
type PolicyScore struct {
	// Policy is the arena name the candidate was registered under.
	Policy string `json:"policy"`
	// Frames counts replayed ticks.
	Frames int `json:"frames"`
	// Boosts counts ticks the candidate decided to act.
	Boosts int `json:"boosts"`
	// PlanMatches counts ticks whose emitted plan is byte-identical to the
	// recorded one. For the recording policy this must equal Frames — the
	// determinism gate.
	PlanMatches int `json:"plan_matches"`
	// Deterministic is PlanMatches == Frames.
	Deterministic bool `json:"deterministic"`
	// MeanProjectedMS / P99ProjectedMS / MaxProjectedMS summarize the
	// per-tick projected bottleneck expected delay (Equation 1 over the
	// shadow-applied state, serving and queuing rescaled by the profiled
	// α of any level change — Equation 3 — and queue halving of any clone —
	// Equation 2).
	MeanProjectedMS float64 `json:"mean_projected_ms"`
	P99ProjectedMS  float64 `json:"p99_projected_ms"`
	MaxProjectedMS  float64 `json:"max_projected_ms"`
}

// Comparison is the arena result: one trace, N candidate policies.
type Comparison struct {
	Trace  Header `json:"trace"`
	Frames int    `json:"frames"`
	// Policies is ordered as requested, recording policy included only if
	// requested.
	Policies []PolicyScore `json:"policies"`
}

// Policy is what the table builds: a Planner the arena replays and a
// core.Policy a control loop drives.
type Policy interface {
	core.Planner
	core.Policy
}

// policies is the one name → policy table: CLI flags, config files, the
// facade and the arena all resolve a policy name here. Every entry's Name()
// is its key, so a recorded trace's header always resolves.
var policies = []struct {
	name  string
	qos   bool // needs a positive QoS target
	build func(qos time.Duration, cfg core.Config) Policy
}{
	{"powerchief", false, func(_ time.Duration, cfg core.Config) Policy { return core.NewPowerChief(cfg) }},
	{"freq-boost", false, func(_ time.Duration, cfg core.Config) Policy { return core.NewFreqBoost(cfg) }},
	{"inst-boost", false, func(_ time.Duration, cfg core.Config) Policy { return core.NewInstBoost(cfg) }},
	{"baseline", false, func(time.Duration, core.Config) Policy { return core.Static{} }},
	{"proportional", false, func(_ time.Duration, cfg core.Config) Policy { return NewDivider(arbiter.Proportional{}, cfg) }},
	{"fairness", false, func(_ time.Duration, cfg core.Config) Policy { return NewDivider(arbiter.Fairness{Alpha: 2}, cfg) }},
	{"marginal", false, func(_ time.Duration, cfg core.Config) Policy { return NewDivider(arbiter.Marginal{}, cfg) }},
	{"pegasus", true, func(qos time.Duration, _ core.Config) Policy { return core.NewPegasus(qos) }},
	{"saver", true, func(qos time.Duration, cfg core.Config) Policy { return core.NewPowerChiefSaver(qos, cfg) }},
}

// PolicyNames lists the registered names in table order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// NewPolicy builds a fresh policy by registered name at the Table 2
// configuration.
func NewPolicy(name string, qos time.Duration) (Policy, error) {
	mk, err := PolicyFactory(name, qos, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

// PolicyFactory resolves a registered name to a constructor of fresh
// policies over cfg. pegasus and saver need a positive QoS target.
func PolicyFactory(name string, qos time.Duration, cfg core.Config) (func() Policy, error) {
	for _, p := range policies {
		if p.name != name {
			continue
		}
		if p.qos && qos <= 0 {
			return nil, fmt.Errorf("replay: policy %s needs a positive QoS target (policies: %v)", name, PolicyNames())
		}
		return func() Policy { return p.build(qos, cfg) }, nil
	}
	return nil, fmt.Errorf("replay: unknown policy %q (policies: %v)", name, PolicyNames())
}

// Run replays the trace against each named policy in shadow mode and scores
// them. Each candidate starts fresh and walks the frames in recorded order,
// so stateful policies (withdraw epochs, hold bands) evolve exactly as they
// would have live.
func Run(t *Trace, names []string, qos time.Duration) (*Comparison, error) {
	if len(t.Frames) == 0 {
		return nil, fmt.Errorf("replay: trace has no frames")
	}
	out := &Comparison{Trace: t.Header, Frames: len(t.Frames)}
	for _, name := range names {
		p, err := NewPolicy(name, qos)
		if err != nil {
			return nil, err
		}
		out.Policies = append(out.Policies, replayOne(t, name, p))
	}
	return out, nil
}

// Determinism replays the trace's own recording policy and reports whether
// it reproduced every recorded plan byte-identically.
func Determinism(t *Trace, qos time.Duration) (PolicyScore, error) {
	p, err := NewPolicy(t.Header.Policy, qos)
	if err != nil {
		return PolicyScore{}, fmt.Errorf("replay: recording policy not replayable: %w", err)
	}
	return replayOne(t, t.Header.Policy, p), nil
}

// replayOne walks the frames once with one candidate.
func replayOne(t *Trace, name string, p core.Planner) PolicyScore {
	score := PolicyScore{Policy: name, Frames: len(t.Frames)}
	var projected []float64
	for i := range t.Frames {
		f := &t.Frames[i]
		sv := core.NewSnapshotView(f.Snapshot)
		plan, out := p.Plan(sv, sv)
		if samePlan(core.EncodePlan(plan), f.Plan) {
			score.PlanMatches++
		}
		if out.Kind != core.BoostNone {
			score.Boosts++
		}
		// Project the decision forward on the shadow copy; a plan the shadow
		// budget refuses scores as the unmodified state.
		_ = core.ShadowExecutor{}.Apply(sv, plan)
		projected = append(projected, projectedMS(f.Snapshot, sv))
	}
	score.Deterministic = score.PlanMatches == score.Frames
	score.MeanProjectedMS = mean(projected)
	score.P99ProjectedMS = percentile(projected, 0.99)
	score.MaxProjectedMS = percentile(projected, 1)
	return score
}

// samePlan reports whether a replayed plan is the recorded one: the same
// records in the same order, nil equal to empty. It agrees with comparing the
// two plans' JSON encodings, the form a trace stores: ±0 watts are equal
// (omitempty drops both), and a plan carrying a non-finite watt figure, which
// JSON cannot encode, matches only another such plan.
func samePlan(a, b []core.ActionRecord) bool {
	if fa, fb := finiteWatts(a), finiteWatts(b); !fa || !fb {
		return fa == fb
	}
	return slices.Equal(a, b)
}

// finiteWatts reports whether every watt figure in recs is finite.
func finiteWatts(recs []core.ActionRecord) bool {
	finite := func(w cmp.Watts) bool { return !math.IsNaN(float64(w)) && !math.IsInf(float64(w), 0) }
	for _, r := range recs {
		if !finite(r.FromW) || !finite(r.ToW) {
			return false
		}
	}
	return true
}

// projectedMS computes the projected bottleneck expected delay (ms) of the
// shadow state sv relative to the capture snap: Equation 1 per instance with
// queuing/serving rescaled by the profiled α of its level change and the
// shadow's post-plan queue lengths (clone steals, withdraw merges). Shadow
// clones carry no recorded statistics and score through their source's
// shrunken queue.
func projectedMS(snap *core.Snapshot, sv *core.SnapshotView) float64 {
	type orig struct {
		q, s time.Duration
		lvl  cmp.Level
		ok   bool
	}
	m := make(map[string]orig)
	for i := range snap.Stages {
		for _, in := range snap.Stages[i].Instances {
			m[in.Name] = orig{q: in.Queuing, s: in.Serving, lvl: in.Level, ok: in.StatsOK}
		}
	}
	worst := 0.0
	for _, st := range sv.Stages() {
		prof := st.Profile()
		for _, in := range st.Instances() {
			o, ok := m[in.Name()]
			if !ok || !o.ok {
				continue
			}
			alpha := cmp.Alpha(prof, o.lvl, in.Level())
			proj := alpha * (float64(in.QueueLen())*float64(o.q) + float64(o.s))
			if proj > worst {
				worst = proj
			}
		}
	}
	return worst / float64(time.Millisecond)
}

// mean averages the samples (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-quantile by nearest-rank over a sorted copy.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
