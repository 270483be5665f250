package main

import (
	"fmt"
	"math/rand"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/query"
	"powerchief/internal/replay"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
	"powerchief/internal/workload"
)

// assembled is one single-application scenario wired from the public sim /
// stage / workload / core / controlplane constructors — what harness.Run
// does internally — so a traced pass can put wrappers on the work drawer,
// the completion ingest and the policy.
type assembled struct {
	sc   harness.Scenario
	eng  *sim.Engine
	chip *cmp.Chip
	sys  *stage.System
	ctl  *controlplane.Loop
	res  *harness.Result

	powerIntegral float64
	lastSample    time.Duration
}

// assemble mirrors harness.Run up to the first RunUntil. Only the scenario
// fields the benchmark's scenarios set are honoured; the rest take the
// harness defaults. tr may be nil.
func assemble(sc harness.Scenario, tr *tracer) (*assembled, error) {
	if sc.HopDelay != nil || sc.Dispatcher != nil || sc.Observe != nil || sc.Tracer != nil || sc.Audit != nil || sc.StageLevels != nil {
		return nil, fmt.Errorf("bench: scenario %q sets a field assemble does not mirror", sc.Name)
	}
	if sc.Cores == 0 {
		sc.Cores = 16
	}
	if sc.StatsWindow == 0 {
		sc.StatsWindow = sc.AdjustInterval
	}
	if sc.Instances == nil {
		sc.Instances = make([]int, len(sc.App.Stages))
		for i := range sc.Instances {
			sc.Instances[i] = 1
		}
	}
	if err := sc.App.Validate(); err != nil {
		return nil, err
	}

	a := &assembled{sc: sc, eng: sim.NewEngine()}
	model := cmp.DefaultModel()
	specs, err := sc.App.Specs(sc.Instances, sc.Level)
	if err != nil {
		return nil, err
	}
	budget := sc.Budget
	if budget == 0 {
		for _, spec := range specs {
			budget += cmp.Watts(spec.Instances) * model.Power(spec.Level)
		}
	}
	a.chip = cmp.NewChip(sc.Cores, model, budget)
	a.sys, err = stage.NewSystem(a.eng, a.chip, specs)
	if err != nil {
		return nil, fmt.Errorf("bench: building %q: %w", sc.Name, err)
	}
	view := core.NewDESView(a.sys)
	agg := core.NewAggregator(sc.StatsWindow, a.eng.Now)
	policy := sc.Policy()

	a.res = &harness.Result{
		Scenario:  sc.Name,
		Policy:    policy.Name(),
		Latency:   stats.NewSummary(),
		PeakPower: a.chip.Draw(),
		Trace:     stats.NewTimeSeries(),
	}
	var recorder *replay.Recorder
	if _, ok := policy.(core.TapSetter); ok && !sc.DisableDecisionTrace {
		recorder = replay.NewRecorder(replay.Header{Scenario: sc.Name, Seed: sc.Seed, Policy: policy.Name()}, sc.DecisionFrames)
		a.res.Decisions = recorder
	}

	ingests, draws := tr.counter("core.ingest"), tr.counter("workload.draw")
	a.sys.OnComplete(func(q *query.Query) {
		if n := ingests.Add(1); tr != nil && n%sampleEvery == 0 {
			s := tr.begin("core.ingest", tr.currentScope(), uint64(q.ID))
			agg.Ingest(q)
			tr.end(s)
		} else {
			agg.Ingest(q)
		}
		a.res.Latency.Observe(q.Latency())
	})

	capacity := sc.App.CapacityQPS(sc.Instances, sc.Level)
	rng := rand.New(rand.NewSource(sc.Seed))
	branches := append([]int(nil), sc.Instances...)
	gen := workload.NewGenerator(a.eng, a.sys, sc.Source(capacity), func(r *rand.Rand) [][]time.Duration {
		if n := draws.Add(1); tr != nil && n%sampleEvery == 0 {
			s := tr.begin("workload.draw", tr.currentScope(), uint64(n))
			w := sc.App.DrawWork(r, branches)
			tr.end(s)
			return w
		}
		return sc.App.DrawWork(r, branches)
	}, rng, sc.Duration)
	gen.Start()

	opts := controlplane.Options{
		Policy:         policy,
		Interval:       sc.AdjustInterval,
		SampleInterval: sc.AdjustInterval,
		OnSample: func(now time.Duration) {
			a.powerIntegral += float64(a.chip.Draw()) * (now - a.lastSample).Seconds()
			a.lastSample = now
			a.res.Trace.Record("power", now, float64(a.chip.Draw()))
			if lat, ok := agg.WindowLatency(); ok {
				a.res.Trace.Record("latency", now, lat.Seconds())
			}
			for _, st := range a.sys.Stages() {
				active := st.Active()
				a.res.Trace.Record("instances:"+st.Name(), now, float64(len(active)))
				for _, in := range active {
					a.res.Trace.Record("freq:"+in.Name(), now, float64(in.Level().GHz()))
				}
			}
		},
	}
	if recorder != nil {
		opts.Tap = recorder
	}
	a.ctl, err = controlplane.Start(controlplane.SimClock(a.eng), controlplane.NewAdjuster(view, agg), opts)
	if err != nil {
		return nil, fmt.Errorf("bench: %q control plane: %w", sc.Name, err)
	}
	return a, nil
}

// run drives the assembled scenario through its horizon and drain, exactly
// as harness.Run does, and fills in the result.
func (a *assembled) run() (*harness.Result, error) {
	sc := a.sc
	a.eng.RunUntil(sc.Duration)
	deadline := 2 * sc.Duration // DrainFactor 1
	for a.eng.Now() < deadline && !a.sys.Drain() {
		step := sc.AdjustInterval
		if a.eng.Now()+step > deadline {
			step = deadline - a.eng.Now()
		}
		a.eng.RunUntil(a.eng.Now() + step)
	}
	a.ctl.Stop()
	a.res.Boosts = a.ctl.Boosts()
	if a.eng.Now() > 0 && a.lastSample > 0 {
		a.res.AvgPower = cmp.Watts(a.powerIntegral / a.lastSample.Seconds())
	} else {
		a.res.AvgPower = a.chip.Draw()
	}
	a.res.Submitted = a.sys.Submitted()
	a.res.Completed = a.sys.Completed()
	if err := a.chip.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("bench: %q ended with a broken chip invariant: %w", sc.Name, err)
	}
	return a.res, nil
}
