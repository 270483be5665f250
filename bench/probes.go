package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/live"
	"powerchief/internal/loadgen"
	"powerchief/internal/query"
	"powerchief/internal/replay"
	"powerchief/internal/rpc"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// The probe battery: one timed loop per public function on the pipeline,
// each over a stated fixed input drawn from the run seed. It runs in every
// traced run, whichever workload is named, so the ledger reads the same in
// all five result rows. Sub-microsecond calls are timed in batches (median
// of rounds); slower ones call by call (median of calls).

// probes carries the battery's sizing and destination.
type probes struct {
	cfg runConfig
	res *RunResult
	m   Metrics
}

// n scales a probe's iteration count (tests run the battery at 1/100).
func (p probes) n(base int) int {
	n := int(float64(base) * p.cfg.scale)
	if n < 20 {
		n = 20
	}
	return n
}

func (p probes) seed(stream string) int64 { return deriveSeed(p.cfg.seed, "probe-"+stream, 0) }

// each times op call by call and returns the median in nanoseconds.
func each(n int, op func(i int)) float64 {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		op(i)
		ds[i] = float64(time.Since(start))
	}
	return median(ds)
}

// mallocs returns the heap allocations fn performs.
func mallocs(fn func()) (count, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func runProbes(cfg runConfig, res *RunResult) error {
	p := probes{cfg: cfg, res: res, m: res.Metrics}
	for _, group := range []func() error{
		p.simProbes, p.desProbes, p.statsProbes, p.ingestProbes, p.decisionProbes,
		p.replayProbes, p.arbiterProbes, p.fleetProbes, p.liveProbes, p.telemetryProbes,
		p.rpcProbes, p.distProbes, p.loadgenProbes,
	} {
		settle()
		if err := group(); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// simProbes: the engine's schedule+fire cost, a work draw and a DVFS write.
func (p probes) simProbes() error {
	// 64 self-rescheduling chains keep the event heap at a steady, small
	// depth — the shape of a running simulation, not of a pre-loaded one.
	p.m.set("sim.event_ns", perCall(5, p.n(400000), func(n int) {
		eng := sim.NewEngine()
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				eng.Schedule(time.Duration(1+left%977)*time.Microsecond, fire)
			}
		}
		for i := 0; i < 64; i++ {
			eng.Schedule(time.Duration(i+1)*time.Microsecond, fire)
		}
		eng.Run()
	}), 5)

	a := app.Sirius()
	rng := rand.New(rand.NewSource(p.seed("draw")))
	branches := []int{1, 1, 1}
	p.m.set("app.draw_ns", perCall(5, p.n(200000), func(n int) {
		for i := 0; i < n; i++ {
			_ = a.DrawWork(rng, branches)
		}
	}), 5)

	model := cmp.DefaultModel()
	chip := cmp.NewChip(16, model, 16*model.MaxPower())
	ids := make([]cmp.CoreID, 16)
	for i := range ids {
		id, err := chip.Allocate(cmp.MidLevel)
		if err != nil {
			return err
		}
		ids[i] = id
	}
	var setErr error
	p.m.set("cmp.setlevel_ns", perCall(5, p.n(400000), func(n int) {
		for i := 0; i < n; i++ {
			if err := chip.SetLevel(ids[i%16], cmp.Level(i%int(cmp.NumLevels))); err != nil {
				setErr = err
			}
		}
	}), 5)
	return setErr
}

// desProbes: one Table 2 Sirius run for the per-query engine counts, the
// bare stage pipeline without a policy or aggregator, and the paper's
// headline ratio on the first derived des-paper seed.
func (p probes) desProbes() error {
	in := instrument{ticks: &tickLog{}}
	seed := deriveSeed(p.cfg.seed, wlDESPaper, 0)
	horizon := scaleDuration(900*time.Second, p.cfg.scale)
	cfg := core.DefaultConfig()

	// Assembled PowerChief run, medium load: events, allocations and the
	// work drawer's share per simulated query.
	sc := mitigationScenario(app.Sirius(), workload.Medium, "powerchief", func() core.Policy { return core.NewPowerChief(cfg) }, seed, horizon, in)
	a, err := assemble(sc, nil)
	if err != nil {
		return err
	}
	var result *harness.Result
	start := time.Now()
	count, size := mallocs(func() { result, err = a.run() })
	host := time.Since(start)
	if err != nil {
		return err
	}
	done := float64(result.Completed)
	p.m.set("sim.events_per_query", float64(a.eng.Fired())/done, 0)
	p.m.set("des.allocs_per_query", float64(count)/done, 0)
	p.m.set("des.bytes_per_query", float64(size)/done, 0)
	p.m.set("workload.draw_share", 100*float64(result.Submitted)*p.m["app.draw_ns"].Value/float64(host), 0)

	// Bare pipeline: Static allocation, no aggregator, no control loop.
	rates := make([]float64, 3)
	for r := range rates {
		eng := sim.NewEngine()
		model := cmp.DefaultModel()
		specs, err := app.Sirius().Specs(nil, cmp.MidLevel)
		if err != nil {
			return err
		}
		chip := cmp.NewChip(16, model, harness.MitigationBudget)
		sys, err := stage.NewSystem(eng, chip, specs)
		if err != nil {
			return err
		}
		capacity := app.Sirius().CapacityQPS([]int{1, 1, 1}, cmp.MidLevel)
		rng := rand.New(rand.NewSource(seed))
		gen := workload.NewGenerator(eng, sys, constantLoad(workload.Medium)(capacity), func(r *rand.Rand) [][]time.Duration {
			return app.Sirius().DrawWork(r, []int{1, 1, 1})
		}, rng, 4*horizon)
		gen.Start()
		start := time.Now()
		eng.Run()
		rates[r] = float64(time.Since(start)) / float64(sys.Completed())
	}
	p.m.set("stage.query_ns", median(rates), len(rates))

	// Headline: simulated p99 of baseline ÷ PowerChief, Sirius, high load.
	base := mitigationScenario(app.Sirius(), workload.High, "baseline", nil, seed, horizon, in)
	chief := mitigationScenario(app.Sirius(), workload.High, "powerchief", func() core.Policy { return core.NewPowerChief(cfg) }, seed, horizon, in)
	rb, err := harness.Run(base)
	if err != nil {
		return err
	}
	rc, err := harness.Run(chief)
	if err != nil {
		return err
	}
	p.m.set("paper.p99_improve_x", float64(rb.Latency.P99())/float64(rc.Latency.P99()), 0)
	return nil
}

// statsProbes: the window, histogram, delta and digest primitives.
func (p probes) statsProbes() error {
	rng := rand.New(rand.NewSource(p.seed("stats")))
	vals := make([]time.Duration, 4096)
	for i := range vals {
		vals[i] = time.Duration(rng.ExpFloat64() * float64(300*time.Millisecond))
	}
	// One sample per simulated millisecond into a 25 s window: steady-state
	// add with eviction.
	p.m.set("stats.window_add_ns", perCall(5, p.n(400000), func(n int) {
		w := stats.NewWindow(25 * time.Second)
		for i := 0; i < n; i++ {
			w.Add(time.Duration(i)*time.Millisecond, vals[i%len(vals)])
		}
	}), 5)
	p.m.set("stats.bucket_add_ns", perCall(5, p.n(400000), func(n int) {
		w := stats.NewBucketWindow(25*time.Second, 0)
		for i := 0; i < n; i++ {
			w.Add(time.Duration(i)*time.Millisecond, vals[i%len(vals)])
		}
	}), 5)
	p.m.set("stats.hist_observe_ns", perCall(5, p.n(400000), func(n int) {
		h := stats.NewHistogram(1.05)
		for i := 0; i < n; i++ {
			h.Observe(vals[i%len(vals)])
		}
	}), 5)
	insts := []string{"ASR_0", "ASR_1", "IMM_0", "IMM_1", "QA_0", "QA_1", "QA_2", "QA_3"}
	p.m.set("stats.delta_fold_ns", perCall(5, p.n(400000), func(n int) {
		acc := stats.NewDeltaAccumulator(64, time.Hour)
		for i := 0; i < n; i++ {
			at := time.Duration(i) * time.Millisecond
			name := insts[i%len(insts)]
			acc.FoldRecord(at, name, name[:len(name)-2], vals[i%len(vals)], vals[(i+7)%len(vals)])
			if i%3 == 2 {
				acc.FoldCompletion(at)
				_ = acc.FlushIfDue(at)
			}
		}
	}), 5)
	digests := make([]*stats.HistogramDigest, 8)
	for d := range digests {
		h := stats.NewBinHistogram()
		for i := 0; i < 10000; i++ {
			h.Observe(vals[(i+d*511)%len(vals)])
		}
		digests[d] = h.Digest()
	}
	var mergeErr error
	p.m.set("stats.digest_merge_us", each(p.n(400), func(int) {
		if _, err := stats.MergeDigests(digests...); err != nil {
			mergeErr = err
		}
	})/1e3, p.n(400))
	return mergeErr
}

// probeQueries builds a ring of completed three-stage queries, each carrying
// one record per stage the way the engines leave them.
func probeQueries(seed int64, n int) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	stages := []struct {
		name string
		n    int
	}{{"ASR", 2}, {"IMM", 2}, {"QA", 4}}
	out := make([]*query.Query, n)
	for i := range out {
		q := query.New(query.ID(i+1), time.Duration(i)*time.Millisecond, nil)
		at := q.Arrival
		for _, st := range stages {
			wait := time.Duration(rng.ExpFloat64() * float64(80*time.Millisecond))
			serve := time.Duration(rng.ExpFloat64() * float64(250*time.Millisecond))
			q.Append(query.Record{
				Query: q.ID, Stage: st.name, Instance: fmt.Sprintf("%s_%d", st.name, rng.Intn(st.n)),
				QueueEnter: at, ServeStart: at + wait, ServeEnd: at + wait + serve, Level: int(cmp.MidLevel),
			})
			at += wait + serve
		}
		q.Done = at
		out[i] = q
	}
	return out
}

// ingestProbes: Aggregator.Ingest on both window kinds and IngestDelta of a
// 64-completion delta.
func (p probes) ingestProbes() error {
	qs := probeQueries(p.seed("ingest"), 2048)
	for _, kind := range []struct {
		metric string
		window core.WindowKind
	}{{"core.ingest_ns", core.WindowExact}, {"core.ingest_bucketed_ns", core.WindowBucketed}} {
		kind := kind
		p.m.set(kind.metric, perCall(5, p.n(200000), func(n int) {
			var now time.Duration
			agg := core.NewAggregatorOptions(25*time.Second, func() time.Duration { return now }, core.AggregatorOptions{Window: kind.window})
			for i := 0; i < n; i++ {
				now += time.Millisecond
				agg.Ingest(qs[i%len(qs)])
			}
		}), 5)
	}

	acc := stats.NewDeltaAccumulator(64, time.Hour)
	for i := 0; i < 64; i++ {
		q := qs[i]
		for _, r := range q.Records {
			acc.FoldRecord(q.Done, r.Instance, r.Stage, r.Queuing(), r.Serving())
		}
		acc.FoldCompletion(q.Done)
	}
	delta := acc.Flush(qs[63].Done)
	if delta == nil {
		return errors.New("delta accumulator flushed nothing")
	}
	var now time.Duration
	agg := core.NewAggregatorOptions(25*time.Second, func() time.Duration { return now }, core.AggregatorOptions{Window: core.WindowBucketed})
	var ingestErr error
	p.m.set("core.ingest_delta_us", each(p.n(20000), func(int) {
		now += 64 * time.Millisecond
		if err := agg.IngestDelta(delta); err != nil {
			ingestErr = err
		}
	})/1e3, p.n(20000))
	return ingestErr
}

// failingInstance is a core.Instance whose DVFS write always fails — the
// third action of the rollback probe's plan.
type failingInstance struct{}

func (failingInstance) Name() string             { return "probe_fail" }
func (failingInstance) StageName() string        { return "probe" }
func (failingInstance) QueueLen() int            { return 0 }
func (failingInstance) Level() cmp.Level         { return cmp.MidLevel }
func (failingInstance) SetLevel(cmp.Level) error { return errors.New("probe: actuation refused") }
func (failingInstance) Utilization() float64     { return 0 }
func (failingInstance) ResetUtilizationEpoch()   {}

// decisionState runs Sirius 4,4,8 — sixteen instances on the 16-core chip —
// under a static allocation at high load for 200 simulated seconds and
// returns the populated system and aggregator the decision probes read.
func (p probes) decisionState() (*assembled, core.System, *core.Aggregator, error) {
	var agg *core.Aggregator
	sc := harness.Scenario{
		Name: "probe-state", App: app.Sirius(), Instances: []int{4, 4, 8}, Level: cmp.MidLevel, Cores: 16,
		Source: constantLoad(workload.High), Duration: 200 * time.Second, AdjustInterval: time.Second,
		Seed: p.seed("state"),
		// The static policy's only job here is to hand the aggregator out.
		Policy: func() core.Policy { return aggGrabber{agg: &agg} },
	}
	a, err := assemble(sc, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	a.eng.RunUntil(sc.Duration)
	if agg == nil {
		return nil, nil, nil, errors.New("decision state: no control tick fired")
	}
	return a, core.NewDESView(a.sys), agg, nil
}

// aggGrabber is a do-nothing policy that remembers the aggregator the
// control loop hands it.
type aggGrabber struct{ agg **core.Aggregator }

func (aggGrabber) Name() string { return "baseline" }
func (g aggGrabber) Adjust(_ core.System, agg *core.Aggregator) core.BoostOutcome {
	*g.agg = agg
	return core.BoostOutcome{Kind: core.BoostNone}
}

// decisionProbes: rank, capture, view, plan per policy, apply, rollback and
// a budget-domain re-grant, all against the same sixteen-instance state.
func (p probes) decisionProbes() error {
	a, view, agg, err := p.decisionState()
	if err != nil {
		return err
	}
	defer a.ctl.Stop()
	id := core.Identifier{Metric: core.MetricExpectedDelay}
	n := p.n(20000)
	p.m.set("core.rank_ns", perCall(5, n, func(n int) {
		for i := 0; i < n; i++ {
			_ = id.Rank(view, agg)
		}
	}), 5)
	count, _ := mallocs(func() {
		for i := 0; i < n; i++ {
			_ = id.Rank(view, agg)
		}
	})
	p.m.set("core.rank_allocs", float64(count)/float64(n), 0)

	var snap *core.Snapshot
	p.m.set("core.capture_us", each(p.n(5000), func(int) { snap = core.CaptureSnapshot(view, agg) })/1e3, p.n(5000))
	b, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	p.m.set("core.snapshot_bytes", float64(len(b)), 0)
	p.m.set("core.view_us", each(p.n(5000), func(int) { _ = core.NewSnapshotView(snap) })/1e3, p.n(5000))

	for _, name := range []string{"powerchief", "freq-boost", "inst-boost", "pegasus", "saver"} {
		planner, err := replay.NewPolicy(name, replayQoS)
		if err != nil {
			return err
		}
		views := make([]*core.SnapshotView, p.n(3000))
		for i := range views {
			views[i] = core.NewSnapshotView(snap)
		}
		p.m.set("core.plan_us."+name, each(len(views), func(i int) { _, _ = planner.Plan(views[i], views[i]) })/1e3, len(views))
	}

	// Apply: three DVFS steps down, then the same three back up, through the
	// validating executor on the real simulated system.
	var targets []core.Instance
	for _, st := range view.Stages() {
		targets = append(targets, st.Instances()[0])
	}
	mkPlan := func(from, to cmp.Level, extra core.Instance) *core.ActionPlan {
		plan := &core.ActionPlan{}
		for _, in := range targets {
			plan.Actions = append(plan.Actions, &core.SetLevelAction{Instance: in, From: from, To: to})
		}
		if extra != nil {
			plan.Actions = append(plan.Actions, &core.SetLevelAction{Instance: extra, From: from, To: to})
		}
		return plan
	}
	down, up := mkPlan(cmp.MidLevel, cmp.MidLevel-1, nil), mkPlan(cmp.MidLevel-1, cmp.MidLevel, nil)
	var applyErr error
	p.m.set("core.apply_us", each(p.n(20000), func(i int) {
		plan := down
		if i%2 == 1 {
			plan = up
		}
		if res := (core.Executor{}).Apply(view, agg, plan); res.Err != nil {
			applyErr = res.Err
		}
	})/1e3, p.n(20000))
	if applyErr != nil {
		return applyErr
	}
	if p.n(20000)%2 == 1 {
		(core.Executor{}).Apply(view, agg, up)
	}
	// Rollback: the same three steps, then a fourth that refuses; the
	// executor undoes the applied prefix.
	failing := mkPlan(cmp.MidLevel, cmp.MidLevel-1, failingInstance{})
	rolled := 0
	p.m.set("core.rollback_us", each(p.n(20000), func(int) {
		if res := (core.Executor{}).Apply(view, agg, failing); res.RolledBack {
			rolled++
		}
	})/1e3, p.n(20000))
	p.res.check(rolled == p.n(20000), "rollback probe: %d of %d failing plans rolled back", rolled, p.n(20000))
	p.res.check(targets[0].Level() == cmp.MidLevel, "rollback probe left %s at level %d", targets[0].Name(), targets[0].Level())

	root := core.NewRootDomain("chip", 100)
	child, err := root.NewChild("tenant", 40, func(cmp.Watts) error { return nil })
	if err != nil {
		return err
	}
	var domErr error
	p.m.set("core.domain_setbudget_ns", perCall(5, p.n(200000), func(n int) {
		for i := 0; i < n; i++ {
			if err := child.SetBudget(cmp.Watts(40 + i%2)); err != nil {
				domErr = err
			}
		}
	}), 5)
	return domErr
}

// replayProbes: record, write, read back and replay one decision trace of
// des-ctl-dense's scenario.
func (p probes) replayProbes() error {
	in := instrument{ticks: &tickLog{}}
	scale := p.cfg.scale * 0.15 // 600 simulated seconds, 600 frames
	sc := ctlDenseScenario(deriveSeed(p.cfg.seed, wlDESCtlDense, 0), scale, in)
	res, err := harness.Run(sc)
	if err != nil {
		return err
	}
	if res.Decisions == nil || res.Decisions.Len() == 0 {
		return errors.New("replay probe: nothing recorded")
	}
	trace := res.Decisions.Trace()
	frames := len(trace.Frames)

	// Recording one frame: encode the plan and append, as the tap does. The
	// snapshot capture is core.capture_us.
	f := trace.Frames[frames/2]
	rec := replay.NewRecorder(trace.Header, p.n(20000))
	plan := &core.ActionPlan{}
	p.m.set("replay.record_us", each(p.n(20000), func(int) {
		rec.RecordDecision(core.DecisionRecord{Snapshot: f.Snapshot, Plan: core.EncodePlan(plan), Outcome: f.Outcome})
	})/1e3, p.n(20000))

	start := time.Now()
	if _, err := replay.Run(trace, []string{"powerchief"}, replayQoS); err != nil {
		return err
	}
	p.m.set("replay.frame_us", us(time.Since(start))/float64(frames), frames)
	names := replay.PolicyNames()
	start = time.Now()
	if _, err := replay.Run(trace, names, replayQoS); err != nil {
		return err
	}
	p.m.set("replay.frames_per_s", float64(frames*len(names))/time.Since(start).Seconds(), frames*len(names))

	var buf bytes.Buffer
	if err := replay.Write(&buf, trace); err != nil {
		return err
	}
	p.m.set("replay.trace_bytes_per_frame", float64(buf.Len())/float64(frames), 0)
	start = time.Now()
	back, err := replay.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	p.m.set("replay.read_mb_s", float64(buf.Len())/1e6/time.Since(start).Seconds(), 0)
	p.res.check(len(back.Frames) == frames, "replay probe: wrote %d frames, read %d", frames, len(back.Frames))
	return nil
}

// probeMember is a budget ledger entry for the arbiter probes.
type probeMember struct {
	name string
	w    cmp.Watts
}

func (m *probeMember) Name() string                { return m.name }
func (m *probeMember) Budget() cmp.Watts           { return m.w }
func (m *probeMember) SetBudget(w cmp.Watts) error { m.w = w; return nil }

// probeArbiterView is an arbiter.View over N synthetic members.
type probeArbiterView struct {
	members []arbiter.Member
	budget  cmp.Watts
}

func (v *probeArbiterView) Now() time.Duration               { return 0 }
func (v *probeArbiterView) Stages() []core.StageControl      { return nil }
func (v *probeArbiterView) Quarantined() []core.StageControl { return nil }
func (v *probeArbiterView) PowerModel() cmp.PowerModel       { return cmp.DefaultModel() }
func (v *probeArbiterView) Budget() cmp.Watts                { return v.budget }
func (v *probeArbiterView) Draw() cmp.Watts {
	var sum cmp.Watts
	for _, m := range v.members {
		sum += m.Granted
	}
	return sum
}
func (v *probeArbiterView) Headroom() cmp.Watts       { return v.budget - v.Draw() }
func (v *probeArbiterView) FreeCores() int            { return 0 }
func (v *probeArbiterView) Members() []arbiter.Member { return v.members }
func (v *probeArbiterView) Floor() cmp.Watts          { return 5 }
func (v *probeArbiterView) Hysteresis() cmp.Watts     { return 1.25 }

func newProbeArbiterView(seed int64, n int) *probeArbiterView {
	rng := rand.New(rand.NewSource(seed))
	v := &probeArbiterView{budget: cmp.Watts(10 * n)}
	for i := 0; i < n; i++ {
		metric := time.Duration((0.2 + 3*rng.Float64()) * float64(time.Second))
		ctl := &probeMember{name: fmt.Sprintf("m-%04d", i), w: 10}
		v.members = append(v.members, arbiter.Member{
			Control: ctl, Granted: 10, Metric: metric, Target: 2 * time.Second,
			Breakdown: []arbiter.StageMetric{{Stage: "ASR", Metric: metric / 4}, {Stage: "QA", Metric: metric}},
		})
	}
	return v
}

// arbiterProbes: one redistribution plan at 10, 100 and 1000 members.
func (p probes) arbiterProbes() error {
	for _, size := range []int{10, 100, 1000} {
		v := newProbeArbiterView(p.seed("arbiter"), size)
		planner := arbiter.New(arbiter.Proportional{})
		calls := p.n(200000 / size)
		p.m.set(fmt.Sprintf("arbiter.plan_us.n%d", size), each(calls, func(int) { _, _ = planner.Plan(v, nil) })/1e3, calls)
		if size == 1000 {
			marginal := arbiter.New(arbiter.Marginal{})
			p.m.set("arbiter.plan_marginal_us.n1000", each(calls, func(int) { _, _ = marginal.Plan(v, nil) })/1e3, calls)
		}
	}
	return nil
}

// fleetProbes: a 100-node fleet through 600 epochs of rolling partitions
// with the counting transport; the counts repeat exactly per seed.
func (p probes) fleetProbes() error {
	tr := newTracer()
	e, err := setupFleet(100, 1000, p.cfg.seed, tr)
	if err != nil {
		return err
	}
	defer e.close()
	epochs := 600
	sub := &RunResult{}
	runFleetUnits(e, epochs, sub, 0, 1)
	p.res.check(sub.Failed == 0, "fleet probe: %d invariant violations: %v", sub.Failed, sub.Problems)
	ticks := durationsUS(e.ticks.snapshot())
	p.m.set("fleet.adjust_us_p50", quantile(ticks, 0.5), len(ticks))
	p.m.set("fleet.reports_per_epoch", float64(tr.total("fleet.report"))/float64(epochs), 0)
	p.m.set("fleet.grants_per_epoch", float64(tr.total("fleet.grant"))/float64(epochs), 0)
	q, r, f := e.coord.Counts()
	p.m.set("fleet.quarantines", float64(q), 0)
	p.m.set("fleet.readmissions", float64(r), 0)
	p.m.set("fleet.fenced", float64(f), 0)
	return nil
}

// oneStageCluster is the smallest live deployment: one stage, one instance.
func oneStageCluster() (*live.Cluster, error) {
	model := cmp.DefaultModel()
	return live.NewCluster(live.Options{Cores: 4, Budget: 4 * model.MaxPower(), TimeScale: wallTimeScale}, []live.StageSpec{
		{Name: "S", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.2), Instances: 1, Level: cmp.MidLevel},
	})
}

// rttUS measures the one-client round trip through a one-stage cluster,
// optionally with a completion observer attached.
func (p probes) rttUS(observe func(*query.Query)) (float64, int, error) {
	cluster, err := oneStageCluster()
	if err != nil {
		return 0, 0, err
	}
	if observe != nil {
		cluster.OnComplete(observe)
	}
	target := loadgen.NewLiveTarget(cluster)
	defer target.Close()
	work := [][]time.Duration{{100 * time.Millisecond}}
	var doErr error
	op := &loadgen.Op{Work: work}
	n := p.n(30000)
	ns := each(n, func(i int) {
		op.ID = query.ID(i + 1)
		if err := target.Do(op); err != nil {
			doErr = err
		}
	})
	return ns / 1e3, n, doErr
}

// liveProbes: Submit alone, the one-stage round trip, a DVFS write under the
// cluster lock, and the control tick of a short live-closed run.
func (p probes) liveProbes() error {
	cluster, err := oneStageCluster()
	if err != nil {
		return err
	}
	work := [][]time.Duration{{100 * time.Millisecond}}
	var id query.ID
	var subErr error
	p.m.set("live.submit_ns", perCall(5, p.n(20000), func(n int) {
		for i := 0; i < n; i++ {
			id++
			if err := cluster.Submit(query.New(id, cluster.Now(), work)); err != nil {
				subErr = err
			}
		}
		for cluster.InFlight() > 0 {
			time.Sleep(time.Millisecond)
		}
	}), 5)
	in := cluster.Stages()[0].Instances()[0]
	p.m.set("live.setlevel_us", each(p.n(50000), func(i int) {
		if err := in.SetLevel(cmp.MidLevel - cmp.Level(i%2)); err != nil {
			subErr = err
		}
	})/1e3, p.n(50000))
	cluster.Close()
	if subErr != nil {
		return subErr
	}

	rtt, n, err := p.rttUS(nil)
	if err != nil {
		return err
	}
	p.m.set("live.rtt_us", rtt, n)

	e, err := setupLive(p.cfg.seed, 1024, nil)
	if err != nil {
		return err
	}
	sub := &RunResult{}
	e.finish(closedLoop(e.target, e.works, liveClients, p.miniBox(), nil), sub)
	ticks := durationsUS(e.ticks.snapshot())
	p.m.set("live.ctl_tick_us", quantile(ticks, 0.5), len(ticks))
	p.res.check(sub.Failed == 0, "live probe: %v", sub.Problems)
	return nil
}

// miniBox is the time box of the battery's short closed-loop runs.
func (p probes) miniBox() time.Duration {
	box := time.Duration(float64(600*time.Millisecond) * p.cfg.scale)
	if box < 50*time.Millisecond {
		box = 50 * time.Millisecond
	}
	return box
}

// telemetryProbes: the tracer and audit hot paths, and what a Sample:1
// tracer adds to the one-stage round trip.
func (p probes) telemetryProbes() error {
	qs := probeQueries(p.seed("telemetry"), 1024)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Sample: 1})
	p.m.set("telemetry.tracer_ns", perCall(5, p.n(200000), func(n int) {
		for i := 0; i < n; i++ {
			tracer.ObserveQuery(qs[i%len(qs)])
		}
	}), 5)
	audit := telemetry.NewAuditLog(1024)
	ev := telemetry.Event{Kind: telemetry.EventIdentify, Stage: "QA", Instance: "QA_0", QueueLen: 3, Metric: time.Second}
	p.m.set("telemetry.audit_ns", perCall(5, p.n(400000), func(n int) {
		for i := 0; i < n; i++ {
			ev.Time = time.Duration(i)
			audit.Record(ev)
		}
	}), 5)

	// Alternate bare and traced rounds so host drift hits both alike.
	var bare, traced []float64
	for r := 0; r < 3; r++ {
		b, _, err := p.rttUS(nil)
		if err != nil {
			return err
		}
		t, _, err := p.rttUS(telemetry.NewTracer(telemetry.TracerOptions{Sample: 1}).ObserveQuery)
		if err != nil {
			return err
		}
		bare, traced = append(bare, b), append(traced, t)
	}
	p.m.set("telemetry.rtt_overhead_pct", 100*(median(traced)-median(bare))/median(bare), len(bare))
	return nil
}

type echoMsg struct {
	Data string `json:"data"`
}

// rpcProbes: a loopback echo server; one call in flight at 200 B and 16 KiB,
// then two callers sharing one client.
func (p probes) rpcProbes() error {
	srv := rpc.NewServer()
	rpc.HandleFunc(srv, "echo", func(m echoMsg) (echoMsg, error) { return m, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := rpc.Dial(addr)
	if err != nil {
		return err
	}
	defer client.Close()

	var callErr error
	call := func(payload echoMsg) func(int) {
		return func(int) {
			var reply echoMsg
			if err := client.Call("echo", payload, &reply); err != nil {
				callErr = err
			} else if len(reply.Data) != len(payload.Data) {
				callErr = errors.New("echo returned a different payload")
			}
		}
	}
	small := echoMsg{Data: string(bytes.Repeat([]byte{'x'}, 200))}
	large := echoMsg{Data: string(bytes.Repeat([]byte{'y'}, 16<<10))}
	n := p.n(10000)
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		call(small)(i)
		ds[i] = us(time.Since(start))
	}
	p.m.set("rpc.call_us_p50", quantile(ds, 0.5), n)
	p.m.set("rpc.call_us_p99", quantile(ds, 0.99), n)
	p.m.set("rpc.call_16k_us_p50", each(p.n(3000), call(large))/1e3, p.n(3000))

	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var reply echoMsg
			for i := 0; i < n; i++ {
				if err := client.Call("echo", small, &reply); err != nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	p.m.set("rpc.calls_per_s", float64(2*n)/time.Since(start).Seconds(), 2*n)
	return errors.Join(callErr, errs[0], errs[1])
}

// distProbes: a short dist-closed deployment — one query in flight for the
// three-hop round trip, then two for the ingest and control numbers.
func (p probes) distProbes() error {
	e, err := setupDist(p.cfg.seed, 1024, nil)
	if err != nil {
		return err
	}
	one := closedLoop(e.target, e.works, 1, p.miniBox(), nil)
	two := closedLoop(e.target, e.works, 2, p.miniBox(), nil)
	deltas, _, _, _ := e.center.IngestCounts()
	staleness, _ := e.center.IngestStaleness()
	ticks := durationsUS(e.ticks.snapshot())
	sub := &RunResult{}
	two.attempted += one.attempted
	two.failed += one.failed
	e.finish(two, sub)
	p.res.check(sub.Failed == 0, "dist probe: %v", sub.Problems)
	p50, n := unitQuantiles(one.latUS(), 0.5)
	p.m.set("dist.submit_us_p50", p50[0], n)
	p.m.set("dist.adjust_us_p50", quantile(ticks, 0.5), len(ticks))
	p.m.set("dist.stat_rpcs_per_query", float64(deltas)/float64(two.attempted), 0)
	p.m.set("dist.ingest_staleness_ms", float64(staleness)/float64(time.Millisecond), 0)
	return nil
}

// noopTarget completes every operation at once: what is left is the
// closed-loop driver's own cost.
type noopTarget struct{}

func (noopTarget) Name() string         { return "noop" }
func (noopTarget) Do(*loadgen.Op) error { return nil }
func (noopTarget) Close() error         { return nil }

// loadgenProbes: the driver's own ceiling, which must stay well above the
// live-closed throughput for that number to be the engine's.
func (p probes) loadgenProbes() error {
	works := drawWorks(p.cfg.seed, "noop", 64)
	r := closedLoop(noopTarget{}, works, liveClients, p.miniBox(), nil)
	p.m.set("loadgen.noop_ops_per_s", median(r.sliceRates()), len(r.slices))
	return nil
}
