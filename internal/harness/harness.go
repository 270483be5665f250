package harness

import (
	"fmt"
	"math/rand"
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
	// DecisionFrames bounds the recorded decision trace. Zero means
	// replay.DefaultFrameLimit.
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
	// Decisions.WriteFile and replay it with internal/replay or
	// `powerbench replay`.
	Decisions *replay.Recorder
}

// defaults fills in unset scenario fields.
func (sc *Scenario) defaults() {
	if sc.Cores == 0 {
		sc.Cores = 16
	}
	if sc.AdjustInterval == 0 {
		sc.AdjustInterval = 25 * time.Second
	}
	if sc.StatsWindow == 0 {
		sc.StatsWindow = sc.AdjustInterval
	}
	if sc.SampleEvery == 0 {
		sc.SampleEvery = sc.AdjustInterval
	}
	if sc.DrainFactor == 0 {
		sc.DrainFactor = 1
	}
	if sc.Instances == nil {
		sc.Instances = make([]int, len(sc.App.Stages))
		for i := range sc.Instances {
			sc.Instances[i] = 1
		}
	}
	if sc.RefInstances == nil {
		sc.RefInstances = sc.Instances
	}
	if sc.RefLevel == 0 {
		sc.RefLevel = sc.Level
	}
	if sc.Policy == nil {
		sc.Policy = func() core.Policy { return core.Static{} }
	}
	if sc.Source == nil {
		sc.Source = func(capacity float64) workload.Source {
			return workload.Constant(workload.RateForUtilization(capacity, workload.Medium.Utilization()))
		}
	}
}

// Run executes the scenario to completion and returns its metrics.
func Run(sc Scenario) (*Result, error) {
	sc.defaults()
	if err := sc.App.Validate(); err != nil {
		return nil, err
	}
	if sc.Duration <= 0 {
		return nil, fmt.Errorf("harness: scenario %q needs a positive duration", sc.Name)
	}

	eng := sim.NewEngine()
	model := cmp.DefaultModel()
	specs, err := sc.App.Specs(sc.Instances, sc.Level)
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
		for _, spec := range specs {
			budget += cmp.Watts(spec.Instances) * model.Power(spec.Level)
		}
	}
	chip := cmp.NewChip(sc.Cores, model, budget)
	sys, err := stage.NewSystem(eng, chip, specs)
	if err != nil {
		return nil, fmt.Errorf("harness: building %q: %w", sc.Name, err)
	}
	if sc.HopDelay != nil {
		sys.SetHopDelay(sc.HopDelay)
	}
	if sc.Dispatcher != nil {
		for _, st := range sys.Stages() {
			st.SetDispatcher(sc.Dispatcher())
		}
	}

	view := core.NewDESView(sys)
	agg := core.NewAggregator(sc.StatsWindow, eng.Now)
	policy := sc.Policy()

	res := &Result{
		Scenario:  sc.Name,
		Policy:    policy.Name(),
		Latency:   stats.NewSummary(),
		PeakPower: chip.Draw(),
		Trace:     stats.NewTimeSeries(),
		Boosts:    make(map[core.BoostKind]int),
	}

	// Decision recording: on by default for policies that expose their
	// decision path. The tap snapshots inputs the policy reads anyway, so
	// the run's decisions stay byte-identical with recording on or off.
	var recorder *replay.Recorder
	if !sc.DisableDecisionTrace {
		if _, ok := policy.(core.TapSetter); ok {
			recorder = replay.NewRecorder(replay.Header{
				Scenario: sc.Name,
				Seed:     sc.Seed,
				Policy:   policy.Name(),
			}, sc.DecisionFrames)
			res.Decisions = recorder
		}
	}

	sys.OnComplete(func(q *query.Query) {
		agg.Ingest(q)
		res.Latency.Observe(q.Latency())
	})
	if sc.Observe != nil {
		sys.OnComplete(func(q *query.Query) { sc.Observe(q.Clone()) })
	}
	if sc.Tracer != nil {
		sys.OnComplete(sc.Tracer.ObserveQuery)
	}

	// Load: capacity anchored to the reference configuration.
	capacity := sc.App.CapacityQPS(sc.RefInstances, sc.RefLevel)
	src := sc.Source(capacity)
	rng := rand.New(rand.NewSource(sc.Seed))
	branches := make([]int, len(sc.Instances))
	copy(branches, sc.Instances)
	gen := workload.NewRefillingGenerator(eng, sys, src, func(into [][]time.Duration, r *rand.Rand) [][]time.Duration {
		return sc.App.DrawWorkInto(into, r, branches)
	}, rng, sc.Duration)
	gen.Start()

	// Control plane: adjust epochs plus the trace-sampling epoch, on the
	// engine's virtual clock. Registration order (adjust before sample) is
	// part of the determinism contract the golden figures pin.
	var powerIntegral float64 // watt-seconds over the horizon
	lastSample := time.Duration(0)
	opts := controlplane.Options{
		Policy:         policy,
		Interval:       sc.AdjustInterval,
		SampleInterval: sc.SampleEvery,
		Audit:          sc.Audit,
		OnSample: func(now time.Duration) {
			powerIntegral += float64(chip.Draw()) * (now - lastSample).Seconds()
			lastSample = now
			res.Trace.Record("power", now, float64(chip.Draw()))
			if lat, ok := agg.WindowLatency(); ok {
				res.Trace.Record("latency", now, lat.Seconds())
			}
			for _, st := range sys.Stages() {
				active := st.Active()
				res.Trace.Record("instances:"+st.Name(), now, float64(len(active)))
				for _, in := range active {
					res.Trace.Record("freq:"+in.Name(), now, float64(in.Level().GHz()))
				}
			}
		},
	}
	if recorder != nil {
		opts.Tap = recorder
	}
	ctl, err := controlplane.Start(controlplane.SimClock(eng), controlplane.NewAdjuster(view, agg), opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %q control plane: %w", sc.Name, err)
	}

	// Generation horizon, then drain.
	eng.RunUntil(sc.Duration)
	deadline := sc.Duration + time.Duration(float64(sc.Duration)*sc.DrainFactor)
	for eng.Now() < deadline && !sys.Drain() {
		step := sc.AdjustInterval
		if eng.Now()+step > deadline {
			step = deadline - eng.Now()
		}
		eng.RunUntil(eng.Now() + step)
	}
	ctl.Stop()
	res.Boosts = ctl.Boosts()

	if horizon := eng.Now(); horizon > 0 && lastSample > 0 {
		res.AvgPower = cmp.Watts(powerIntegral / lastSample.Seconds())
	} else {
		res.AvgPower = chip.Draw()
	}
	res.Submitted = sys.Submitted()
	res.Completed = sys.Completed()
	res.Withdrawn = withdrawnOf(policy)

	if err := chip.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("harness: %q ended with a broken chip invariant: %w", sc.Name, err)
	}
	return res, nil
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
