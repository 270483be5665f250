package harness

import (
	"fmt"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/replay"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// Scenario describes one experiment run.
type Scenario struct {
	Name string
	App  app.App

	// Instances is the initial per-stage instance count (nil = one each).
	Instances []int
	// Level is the initial uniform frequency level.
	Level cmp.Level
	// StageLevels overrides Level per stage (the static configurations of
	// Figure 2). Nil applies Level everywhere.
	StageLevels []cmp.Level
	// Budget is the application power budget. Zero derives it from the
	// initial configuration (sum of initial core powers), the paper's
	// "accommodate one service instance at 1.8 GHz per stage" rule.
	Budget cmp.Watts
	// Cores is the chip size (default 16, the dual-socket E5-2630v3).
	Cores int

	// Policy constructs a fresh control policy for the run. Nil = baseline.
	Policy func() core.Policy
	// AdjustInterval is the control period (Table 2: 25 s).
	AdjustInterval time.Duration
	// StatsWindow is the moving-window span for the Command Center
	// statistics. Zero defaults to the adjust interval.
	StatsWindow time.Duration

	// Source builds the arrival process given the reference capacity in
	// qps. Nil defaults to a constant medium load.
	Source func(refCapacityQPS float64) workload.Source
	// RefInstances/RefLevel define the reference configuration whose
	// capacity anchors load levels; zero values default to the scenario's
	// own initial configuration. Keeping the reference fixed lets every
	// policy face the identical arrival process.
	RefInstances []int
	RefLevel     cmp.Level

	// Duration is the load-generation horizon.
	Duration time.Duration
	// DrainFactor bounds the post-horizon drain: the run stops when the
	// pipeline empties or at Duration×(1+DrainFactor). Default 1.
	DrainFactor float64

	// Seed drives all randomness in the run.
	Seed int64
	// SampleEvery controls trace sampling (default: adjust interval).
	SampleEvery time.Duration

	// HopDelay optionally models network delay between consecutive stages
	// (the distributed deployment of §8.5). Nil means stages share the CMP.
	HopDelay func(from, to int) time.Duration
	// Observe, when set, receives every completed query (with its carried
	// per-instance records) — for per-query analysis beyond the collected
	// summaries. Each one is the hook's own copy (query.Query.Clone), to keep
	// or change as it likes; the run recycles the query it was made from.
	Observe func(*query.Query)
	// Audit, when set, is attached to the policy (via core.AuditSetter) so
	// the run leaves a decision timeline behind. Nil keeps auditing off.
	Audit *telemetry.AuditLog
	// Tracer, when set, samples completed queries into span trees.
	Tracer *telemetry.Tracer
	// Dispatcher optionally replaces the default join-shortest-queue
	// dispatch policy on every stage (one fresh dispatcher per stage).
	Dispatcher func() stage.Dispatcher

	// DisableDecisionTrace turns off the default decision recording. Runs
	// whose policy exposes its decision path (core.TapSetter) record one
	// replay frame — snapshot, plan, outcome — per adjust interval into
	// Result.Decisions; the recording is bounded (DecisionFrames) and adds
	// one snapshot capture per tick.
	DisableDecisionTrace bool
	// DecisionFrames bounds the recorded decision trace, which keeps the
	// last frames. Zero means replay.DefaultFrameLimit.
	DecisionFrames int
}

// Result carries the collected metrics of one run.
type Result struct {
	Scenario string
	Policy   string

	Submitted uint64
	Completed uint64

	// Latency summarizes end-to-end latency over all completed queries.
	Latency *stats.Summary

	// AvgPower is the time-averaged chip draw over the measurement horizon.
	AvgPower cmp.Watts
	// PeakPower is the initial (reference) draw, used for the power-saving
	// fractions of Figures 13/14.
	PeakPower cmp.Watts

	// Trace holds the sampled time series: per-instance frequency
	// ("freq:<name>"), per-stage instance counts ("instances:<stage>"),
	// total power ("power"), windowed latency ("latency").
	Trace *stats.TimeSeries

	// Boosts tallies the decisions taken by kind.
	Boosts map[core.BoostKind]int
	// Withdrawn counts instances withdrawn during the run.
	Withdrawn int

	// Decisions is the recorded decision trace (nil when the policy has no
	// plan-level decision path or recording was disabled). Write it with
	// Decisions.WriteFile, replay it with internal/replay or `powerbench
	// replay`, and render its audit timeline with Trace().Events().
	Decisions *replay.Recorder
}

// tenant lowers the scenario to the one application Run places, with Run's
// own defaults (16 cores, the static policy) ahead of Tenant's.
func (sc *Scenario) tenant() Tenant {
	t := Tenant{
		Name: sc.Name, App: sc.App, Instances: sc.Instances, Level: sc.Level, Cores: sc.Cores,
		Policy: sc.Policy, AdjustInterval: sc.AdjustInterval, StatsWindow: sc.StatsWindow,
		Source: sc.Source, RefInstances: sc.RefInstances, RefLevel: sc.RefLevel,
	}
	if t.Cores == 0 {
		t.Cores = 16
	}
	if t.Policy == nil {
		t.Policy = func() core.Policy { return core.Static{} }
	}
	t.defaults()
	return t
}

// Run executes the scenario to completion and returns its metrics.
func Run(sc Scenario) (*Result, error) {
	t := sc.tenant()
	if err := t.App.Validate(); err != nil {
		return nil, err
	}
	if sc.Duration <= 0 {
		return nil, fmt.Errorf("harness: scenario %q needs a positive duration", sc.Name)
	}
	if sc.SampleEvery == 0 {
		sc.SampleEvery = t.AdjustInterval
	}
	specs, err := t.App.Specs(t.Instances, t.Level)
	if err != nil {
		return nil, err
	}
	if sc.StageLevels != nil {
		if len(sc.StageLevels) != len(specs) {
			return nil, fmt.Errorf("harness: %d stage levels for %d stages", len(sc.StageLevels), len(specs))
		}
		for i := range specs {
			specs[i].Level = sc.StageLevels[i]
		}
	}
	budget := sc.Budget
	if budget == 0 {
		budget, _ = configDraw(specs, cmp.DefaultModel())
	}
	eng := sim.NewEngine()
	c, err := newAppChip(eng, t, specs, budget)
	if err != nil {
		return nil, err
	}
	if sc.HopDelay != nil {
		c.sys.SetHopDelay(sc.HopDelay)
	}
	if sc.Dispatcher != nil {
		for _, st := range c.sys.Stages() {
			st.SetDispatcher(sc.Dispatcher())
		}
	}

	res := &Result{
		Scenario:  sc.Name,
		Policy:    c.policy.Name(),
		Latency:   c.latency,
		PeakPower: c.chip.Draw(),
		Trace:     stats.NewTimeSeries(),
	}

	if sc.Observe != nil {
		c.sys.OnComplete(func(q *query.Query) { sc.Observe(q.Clone()) })
	}
	if sc.Tracer != nil {
		c.sys.OnComplete(sc.Tracer.ObserveQuery)
	}
	c.start(sc.Seed, sc.Duration)

	// Control plane: adjust epochs plus the trace-sampling epoch, on the
	// engine's virtual clock. Registration order (adjust before sample) is
	// part of the determinism contract the golden figures pin.
	var powerIntegral float64 // watt-seconds over the horizon
	lastSample := time.Duration(0)
	smp := sampler{trace: res.Trace, stages: make([]*stats.Series, len(c.sys.Stages()))}
	opts := controlplane.Options{
		Policy:         c.policy,
		Interval:       t.AdjustInterval,
		SampleInterval: sc.SampleEvery,
		Audit:          sc.Audit,
		OnSample: func(now time.Duration) {
			powerIntegral += float64(c.chip.Draw()) * (now - lastSample).Seconds()
			lastSample = now
			smp.sample(now, c)
		},
	}
	// Decision recording: on by default for policies that expose their
	// decision path. The tap snapshots inputs the policy reads anyway, so
	// the run's decisions stay byte-identical with recording on or off.
	if _, ok := c.policy.(core.TapSetter); ok && !sc.DisableDecisionTrace {
		res.Decisions = replay.NewRecorder(replay.Header{
			Scenario: sc.Name,
			Seed:     sc.Seed,
			Policy:   c.policy.Name(),
		}, sc.DecisionFrames)
		opts.Tap = res.Decisions
	}
	ctl, err := controlplane.Start(controlplane.SimClock(eng), controlplane.NewAdjuster(c.view, c.agg), opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %q control plane: %w", sc.Name, err)
	}

	runHorizon(eng, sc.Duration, sc.DrainFactor, t.AdjustInterval, c.sys.Drain)
	ctl.Stop()
	res.Boosts = ctl.Boosts()

	res.AvgPower = c.chip.Draw()
	if eng.Now() > 0 && lastSample > 0 {
		res.AvgPower = cmp.Watts(powerIntegral / lastSample.Seconds())
	}
	res.Submitted = c.sys.Submitted()
	res.Completed = c.sys.Completed()
	res.Withdrawn = withdrawnOf(c.policy)

	if err := c.chip.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("harness: %q ended with a broken chip invariant: %w", sc.Name, err)
	}
	if err := c.checkRecords(); err != nil {
		return nil, err
	}
	return res, nil
}

// sampler writes the run's trace: power, the window latency, and per stage
// its instance count and each instance's frequency. Each series is resolved
// once, when its first point is recorded — the moment Record would have
// created it, so the first-use column order is Record's.
type sampler struct {
	trace   *stats.TimeSeries
	power   *stats.Series
	latency *stats.Series
	stages  []*stats.Series // instances:<stage>, by stage index
	freq    []*stats.Series // freq:<instance>, by instance slot
}

func (s *sampler) sample(now time.Duration, c *appChip) {
	if s.power == nil {
		s.power = s.trace.Series("power")
	}
	s.power.Add(now, float64(c.chip.Draw()))
	if lat, ok := c.agg.WindowLatency(); ok {
		if s.latency == nil {
			s.latency = s.trace.Series("latency")
		}
		s.latency.Add(now, lat.Seconds())
	}
	for i, st := range c.sys.Stages() {
		active := st.ActiveSet()
		if s.stages[i] == nil {
			s.stages[i] = s.trace.Series("instances:" + st.Name())
		}
		s.stages[i].Add(now, float64(len(active)))
		for _, in := range active {
			slot := int(in.Slot())
			if slot >= len(s.freq) {
				s.freq = append(s.freq, make([]*stats.Series, slot+1-len(s.freq))...)
			}
			if s.freq[slot] == nil {
				s.freq[slot] = s.trace.Series("freq:" + in.Name())
			}
			s.freq[slot].Add(now, float64(in.Level().GHz()))
		}
	}
}

// withdrawnOf extracts the withdraw count from policies that track it.
func withdrawnOf(p core.Policy) int {
	switch v := p.(type) {
	case *core.PowerChief:
		return v.Withdrawn
	case *core.PowerChiefSaver:
		return v.Withdrawn
	default:
		return 0
	}
}

// Improvement returns baseline/measured ratios for the average and P99
// latency of a result against a baseline result — the y-axis of Figures 4,
// 10 and 12.
func Improvement(baseline, measured *Result) (avg, p99 float64) {
	avg = stats.Improvement(baseline.Latency.Mean(), measured.Latency.Mean())
	p99 = stats.Improvement(baseline.Latency.P99(), measured.Latency.P99())
	return avg, p99
}
