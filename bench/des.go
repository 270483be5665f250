package main

import (
	"fmt"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/replay"
	"powerchief/internal/workload"
)

// desItem is one simulated experiment of a unit: a single-application
// scenario or a multi-tenant one.
type desItem struct {
	name   string
	single *harness.Scenario
	multi  *harness.MultiScenario
}

// desOutcome is what the output checks and the digest read from one item.
type desOutcome struct {
	completed uint64
	record    string // canonical (completed, mean, p99, avg power, boosts) line
	p99       time.Duration
	problems  []string
	decisions *replay.Recorder
	host      time.Duration
}

func boostsString(b map[core.BoostKind]int) string {
	return fmt.Sprintf("none=%d,freq=%d,inst=%d", b[core.BoostNone], b[core.BoostFrequency], b[core.BoostInstance])
}

// run executes the item on the calling goroutine and times it: through
// harness.Run / harness.RunMulti, or — in a traced pass, for single-
// application scenarios — through the benchmark's own assembly of the same
// public constructors, which must produce the identical result.
func (it desItem) run(tr *tracer, id uint64) (desOutcome, error) {
	var out desOutcome
	span := tr.begin("des.run", noSpan, id)
	prev := tr.setScope(span)
	defer func() {
		tr.setScope(prev)
		tr.end(span)
	}()
	start := time.Now()
	if it.single != nil {
		var res *harness.Result
		var err error
		if tr != nil {
			var a *assembled
			if a, err = assemble(*it.single, tr); err == nil {
				res, err = a.run()
			}
		} else {
			res, err = harness.Run(*it.single)
		}
		out.host = time.Since(start)
		if err != nil {
			return out, fmt.Errorf("%s: %w", it.name, err)
		}
		out.completed = res.Completed
		out.p99 = res.Latency.P99()
		out.decisions = res.Decisions
		out.record = fmt.Sprintf("%s completed=%d mean=%d p99=%d power=%.6f boosts=%s",
			it.name, res.Completed, res.Latency.Mean(), res.Latency.P99(), float64(res.AvgPower), boostsString(res.Boosts))
		if res.Completed == 0 {
			out.problems = append(out.problems, it.name+": no query completed")
		}
		return out, nil
	}
	res, err := harness.RunMulti(*it.multi)
	out.host = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("%s: %w", it.name, err)
	}
	out.record = fmt.Sprintf("%s epochs=%d violations=%d", it.name, res.ArbiterEpochs, res.Violations)
	for _, t := range res.Tenants {
		out.completed += t.Completed
		out.record += fmt.Sprintf(" | %s completed=%d mean=%d p99=%d power=%.6f boosts=%s",
			t.Name, t.Completed, t.Latency.Mean(), t.Latency.P99(), float64(t.AvgPower), boostsString(t.Boosts))
	}
	out.p99 = res.Combined.P99()
	if res.Violations != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%s: %d budget-hierarchy violations", it.name, res.Violations))
	}
	if res.MaxGranted > res.Budget+1e-9 {
		out.problems = append(out.problems, fmt.Sprintf("%s: granted %.6fW over budget %.6fW", it.name, float64(res.MaxGranted), float64(res.Budget)))
	}
	return out, nil
}

func constantLoad(level workload.Level) func(float64) workload.Source {
	return func(capacity float64) workload.Source {
		return workload.Constant(workload.RateForUtilization(capacity, level.Utilization()))
	}
}

// mitigationPolicies are the four Table 2 columns, baseline first.
func mitigationPolicies() []struct {
	label string
	mk    func() core.Policy
} {
	cfg := core.DefaultConfig()
	return []struct {
		label string
		mk    func() core.Policy
	}{
		{"baseline", nil},
		{"freq-boost", func() core.Policy { return core.NewFreqBoost(cfg) }},
		{"inst-boost", func() core.Policy { return core.NewInstBoost(cfg) }},
		{"powerchief", func() core.Policy { return core.NewPowerChief(cfg) }},
	}
}

// mitigationScenario is the Table 2 setup: one instance per stage at
// 1.8 GHz, the budget that configuration draws, 25 s adjust interval.
func mitigationScenario(a app.App, load workload.Level, label string, mk func() core.Policy, seed int64, horizon time.Duration, in instrument) harness.Scenario {
	return harness.Scenario{
		Name:           fmt.Sprintf("%s-%s-%s", a.Name, load, label),
		App:            a,
		Level:          cmp.MidLevel,
		Policy:         in.policy(mk, true),
		Source:         constantLoad(load),
		Duration:       horizon,
		AdjustInterval: 25 * time.Second,
		Seed:           seed,
	}
}

// qosScenario is the Table 3 power-saving setup of Figures 13/14: an
// over-provisioned configuration at the maximum frequency under a bursty
// load, with a QoS policy trading slack for watts.
func qosScenario(name string, a app.App, instances []int, qos, adjust time.Duration, util float64, horizon time.Duration, mk func() core.Policy, seed int64, in instrument) harness.Scenario {
	return harness.Scenario{
		Name:           name,
		App:            a,
		Instances:      instances,
		Level:          cmp.MaxLevel,
		Policy:         in.policy(mk, true),
		AdjustInterval: adjust,
		StatsWindow:    4 * adjust,
		Source: func(capacity float64) workload.Source {
			base := workload.RateForUtilization(capacity, util)
			burst := base * 2.2
			if max := capacity * 0.95; burst > max {
				burst = max
			}
			period := horizon / 9
			tr, err := workload.BurstTrace(base, burst, period, period/4, horizon)
			if err != nil {
				panic(err) // static construction cannot fail
			}
			return tr
		},
		Duration: horizon,
		Seed:     seed,
	}
}

// paperUnit builds one pass over the paper's evaluation matrix for one
// derived seed: 36 mitigation runs, 4 QoS runs and the two-tenant scenario
// static and arbitrated. scale shrinks every horizon (tests run at 1/100).
func paperUnit(seed int64, scale float64, in instrument) []desItem {
	horizon := scaleDuration(900*time.Second, scale)
	var items []desItem
	for _, a := range []app.App{app.Sirius(), app.NLP(), app.WebSearch()} {
		for _, load := range []workload.Level{workload.Low, workload.Medium, workload.High} {
			for _, p := range mitigationPolicies() {
				sc := mitigationScenario(a, load, p.label, p.mk, seed, horizon, in)
				items = append(items, desItem{name: sc.Name, single: &sc})
			}
		}
	}
	cfg := core.DefaultConfig()
	type qosApp struct {
		a         app.App
		instances []int
		qos       time.Duration
		adjust    time.Duration
		util      float64
		horizon   time.Duration
	}
	for _, q := range []qosApp{
		{app.Sirius(), []int{4, 2, 5}, 2 * time.Second, 10 * time.Second, 0.40, scaleDuration(900*time.Second, scale)},
		{app.WebSearch(), []int{10, 1}, 250 * time.Millisecond, 2 * time.Second, 0.30, scaleDuration(200*time.Second, scale)},
	} {
		q := q
		for _, p := range []struct {
			label string
			mk    func() core.Policy
		}{
			{"pegasus", func() core.Policy { return core.NewPegasus(q.qos) }},
			{"saver", func() core.Policy { return core.NewPowerChiefSaver(q.qos, cfg) }},
		} {
			sc := qosScenario(fmt.Sprintf("qos-%s-%s", q.a.Name, p.label), q.a, q.instances, q.qos, q.adjust, q.util, q.horizon, p.mk, seed, in)
			items = append(items, desItem{name: sc.Name, single: &sc})
		}
	}
	for _, arb := range []struct {
		label string
		mk    func() core.Policy
	}{
		{"static", nil},
		{"arbiter", func() core.Policy { return arbiter.New(arbiter.Proportional{}) }},
	} {
		ms := harness.BenchTenantScenario(seed)
		ms.Name = "tenant-" + arb.label
		ms.Duration = scaleDuration(ms.Duration, scale)
		for i := range ms.Tenants {
			ms.Tenants[i].Policy = in.policy(func() core.Policy { return core.NewPowerChief(cfg) }, false)
		}
		if arb.mk != nil {
			ms.Arbiter = in.policy(arb.mk, false)
		}
		items = append(items, desItem{name: ms.Name, multi: &ms})
	}
	return items
}

// ctlDenseScenario is des-ctl-dense's simulation: Sirius 3,2,6 on the
// 16-core chip under its own configuration's budget, high load, PowerChief
// deciding every simulated second with the 4096-frame recorder attached.
func ctlDenseScenario(seed int64, scale float64, in instrument) harness.Scenario {
	cfg := core.DefaultConfig()
	return harness.Scenario{
		Name:           "ctl-dense-sirius-3-2-6",
		App:            app.Sirius(),
		Instances:      []int{3, 2, 6},
		Level:          cmp.MidLevel,
		Cores:          16,
		Policy:         in.policy(func() core.Policy { return core.NewPowerChief(cfg) }, true),
		Source:         constantLoad(workload.High),
		Duration:       scaleDuration(ctlDenseHorizon, scale),
		AdjustInterval: time.Second,
		DecisionFrames: replay.DefaultFrameLimit,
		Seed:           seed,
	}
}

// ctlDenseHorizon keeps one unit's decision trace inside the 4096-frame
// recorder (one frame per simulated second).
const ctlDenseHorizon = 4000 * time.Second

// replayQoS is the QoS target handed to the arena's pegasus and saver.
const replayQoS = 2 * time.Second

func scaleDuration(d time.Duration, scale float64) time.Duration {
	out := time.Duration(float64(d) * scale)
	if out < time.Second {
		out = time.Second
	}
	return out
}

// desItems builds unit i of a DES workload.
func desItems(cfg runConfig, unit int, in instrument) []desItem {
	unitSeed := deriveSeed(cfg.seed, cfg.workload, unit)
	if cfg.workload == wlDESPaper {
		return paperUnit(unitSeed, cfg.scale, in)
	}
	sc := ctlDenseScenario(unitSeed, cfg.scale, in)
	return []desItem{{name: sc.Name, single: &sc}}
}

// setupDES is the set-up both DES workloads time: build unit 0's scenarios
// from the derived seed and take each through the product's own entry point,
// harness.Run / harness.RunMulti, with a one-nanosecond horizon. Engine,
// chip, stages, aggregator, generator, control loop and decision recorder are
// all constructed and torn down by product code, and no query is simulated.
func setupDES(cfg runConfig) error {
	for _, it := range desItems(cfg, 0, instrument{ticks: &tickLog{}}) {
		var err error
		if it.single != nil {
			sc := *it.single
			sc.Duration = time.Nanosecond
			_, err = harness.Run(sc)
		} else {
			ms := *it.multi
			ms.Duration = time.Nanosecond
			_, err = harness.RunMulti(ms)
		}
		if err != nil {
			return fmt.Errorf("set-up of %s: %w", it.name, err)
		}
	}
	return nil
}

// desPass is the outcome of a run of whole units.
type desPass struct {
	unitRates   []float64       // simulated queries per host second, one per unit
	replayRates []float64       // frames × policies per host second, one per unit
	unitDigests []string        // running digest after each unit
	ticks       []time.Duration // every real control tick
	unitTicks   [][]float64     // the same, in microseconds, per unit
	host        time.Duration   // summed scenario host time
	replayHost  time.Duration   // summed replay-phase host time
	completed   uint64
	improve     float64 // sirius-high p99 baseline ÷ powerchief, first unit
}

// runDESUnits runs whole units in derived-seed order until `units` are done
// (units > 0) or the time box is spent (units == 0).
func runDESUnits(cfg runConfig, res *RunResult, tr *tracer, box time.Duration, units int) (*desPass, error) {
	pass := &desPass{}
	in := instrument{ticks: &tickLog{}, tr: tr}
	dg := newDigest()
	var id uint64
	settle()
	for unit := 0; ; unit++ {
		if units > 0 && unit >= units {
			break
		}
		if units == 0 && unit > 0 && pass.host+pass.replayHost >= box {
			break
		}
		var completed uint64
		var host time.Duration
		p99 := make(map[string]time.Duration)
		for _, it := range desItems(cfg, unit, in) {
			id++
			out, err := it.run(tr, id)
			if err != nil {
				return nil, err
			}
			completed += out.completed
			host += out.host
			p99[it.name] = out.p99
			dg.add("%s", out.record)
			res.Attempted += int64(out.completed)
			res.check(len(out.problems) == 0, "%v", out.problems)
			if cfg.workload == wlDESCtlDense {
				rate, took, err := replayPhase(out.decisions, dg, res, tr)
				if err != nil {
					return nil, err
				}
				pass.replayRates = append(pass.replayRates, rate)
				pass.replayHost += took
			}
		}
		if unit == 0 && cfg.workload == wlDESPaper {
			pass.improve = float64(p99["sirius-high-baseline"]) / float64(p99["sirius-high-powerchief"])
		}
		pass.host += host
		pass.completed += completed
		pass.unitRates = append(pass.unitRates, float64(completed)/host.Seconds())
		pass.unitDigests = append(pass.unitDigests, dg.sum())
		fresh := in.ticks.since(len(pass.ticks))
		pass.unitTicks = append(pass.unitTicks, durationsUS(fresh))
		pass.ticks = append(pass.ticks, fresh...)
	}
	return pass, nil
}

// runDES runs des-paper or des-ctl-dense with tracing off.
func runDES(cfg runConfig, res *RunResult) error {
	pass, err := runDESUnits(cfg, res, nil, cfg.box(), 0)
	if err != nil {
		return err
	}
	res.measured()
	res.Units = len(pass.unitRates)
	res.Digest = pass.unitDigests[len(pass.unitDigests)-1]
	checkGolden(cfg, res, pass.unitDigests)

	res.Metrics.set("ops_per_s", median(pass.unitRates), len(pass.unitRates))
	lat, n := unitQuantiles(pass.unitTicks, 0.50, 0.99)
	res.Metrics.set("lat_us_p50", lat[0], n)
	res.Detail["lat_us_p99"] = lat[1]
	res.Detail["sim_queries"] = float64(pass.completed)
	res.Detail["sim_queries_per_s_total"] = float64(pass.completed) / pass.host.Seconds()
	if cfg.workload == wlDESPaper {
		res.Detail["sim_p99_improve_x"] = pass.improve
	} else {
		res.Detail["replay_frames_per_s"] = median(pass.replayRates)
	}
	return nil
}

// traceDES is the traced pass of a DES workload: the same units first
// untraced through the harness, then traced through the benchmark's own
// assembly; the simulated digests must agree unit by unit.
func traceDES(cfg runConfig, res *RunResult, tr *tracer) (*tracedPass, error) {
	plain, err := runDESUnits(cfg, res, nil, cfg.box()/4, 0)
	if err != nil {
		return nil, err
	}
	traced, err := runDESUnits(cfg, res, tr, 0, len(plain.unitRates))
	if err != nil {
		return nil, err
	}
	res.Units = len(traced.unitRates)
	res.Digest = traced.unitDigests[len(traced.unitDigests)-1]
	for i := range plain.unitDigests {
		res.check(plain.unitDigests[i] == traced.unitDigests[i],
			"unit %d: traced digest %s differs from untraced %s", i, traced.unitDigests[i], plain.unitDigests[i])
	}
	p99, n := unitQuantiles(plain.unitTicks, 0.99)
	return &tracedPass{
		p99US:      p99[0],
		p99N:       n,
		ticks:      traced.ticks,
		busy:       traced.host,
		plainRate:  float64(plain.completed) / plain.host.Seconds(),
		tracedRate: float64(traced.completed) / traced.host.Seconds(),
	}, nil
}

// replayFrames is the fixed prefix of each unit's decision trace the arena
// replays: long enough to cover the settling phase and a stretch of steady
// state, short enough that simulation stays the larger half of a unit.
const replayFrames = 1024

// replayPhase pushes the first replayFrames recorded decisions through every
// registered arena policy, one policy at a time, folds the scores into the
// digest and gates determinism. It returns frames × policies per host second
// and the host time spent.
func replayPhase(rec *replay.Recorder, dg *digest, res *RunResult, tr *tracer) (float64, time.Duration, error) {
	if rec == nil || rec.Len() == 0 {
		res.check(false, "des-ctl-dense recorded no decision frames")
		return 0, 0, nil
	}
	trace := rec.Trace()
	if len(trace.Frames) > replayFrames {
		trace.Frames = trace.Frames[:replayFrames]
	}
	names := replay.PolicyNames()
	root := tr.begin("replay", noSpan, 0)
	started := time.Now()
	var took time.Duration
	for i, name := range names {
		span := tr.begin("replay.run."+name, root, uint64(i))
		start := time.Now()
		cmpn, err := replay.Run(trace, []string{name}, replayQoS)
		took += time.Since(start)
		tr.end(span)
		if err != nil {
			return 0, 0, fmt.Errorf("replay %s: %w", name, err)
		}
		p := cmpn.Policies[0]
		dg.add("replay %s frames=%d boosts=%d matches=%d p99=%.6f", p.Policy, p.Frames, p.Boosts, p.PlanMatches, p.P99ProjectedMS)
	}
	span := tr.begin("replay.determinism", root, 0)
	det, err := replay.Determinism(trace, replayQoS)
	tr.end(span)
	tr.end(root)
	if err != nil {
		return 0, 0, fmt.Errorf("replay determinism: %w", err)
	}
	res.check(det.Deterministic, "replay determinism: %d of %d recorded plans reproduced", det.PlanMatches, det.Frames)
	return float64(len(trace.Frames)*len(names)) / took.Seconds(), time.Since(started), nil
}
