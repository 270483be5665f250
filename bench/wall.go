package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/dist"
	"powerchief/internal/live"
	"powerchief/internal/loadgen"
	"powerchief/internal/query"
)

// The wall-clock workloads run Sirius 2,2,4 with modelled work compressed to
// at most ~70 ns per stage, so what is timed is the engine's own path, not
// sleeps. Closed-loop clients drive it; PowerChief ticks every 10 ms of wall
// time on the same locks and connections.
const (
	wallTimeScale   = 1e-7
	wallCtlInterval = 10 * time.Millisecond
	// liveClients: two callers contend for the cluster mutex.
	liveClients = 2
	// distClients: one query in flight, so the round trip is three
	// sequential hops and nothing else. With two, the median round trip of
	// ten interleaved runs spread 12 % against 3-5 % with one.
	distClients     = 1
	wallWarmShare   = 0.05 // first 5 % of the box is warm-up
	wallWorkRing    = 1 << 14
	distIngestBatch = 64
	distStatsWindow = time.Second
)

var wallInstances = []int{2, 2, 4}

// wallEnv is one assembled wall-clock deployment.
type wallEnv struct {
	kind     string // wlLiveClosed or wlDistClosed
	target   loadgen.Target
	cluster  *live.Cluster
	center   *dist.Center
	services []*dist.StageService
	loop     *controlplane.Loop
	ticks    tickLog
	works    [][][]time.Duration
	budget   cmp.Watts
	baseline int // goroutines before set-up
}

func wallBudget() cmp.Watts {
	var b cmp.Watts
	model := cmp.DefaultModel()
	for _, n := range wallInstances {
		b += cmp.Watts(n) * model.Power(cmp.MidLevel)
	}
	return b
}

// drawWorks materialises the ring of per-stage work matrices the clients
// cycle through — the workload's input, fixed by the seed.
func drawWorks(seed int64, stream string, n int) [][][]time.Duration {
	a := app.Sirius()
	rng := rand.New(rand.NewSource(deriveSeed(seed, stream, 0)))
	out := make([][][]time.Duration, n)
	for i := range out {
		out[i] = a.DrawWork(rng, wallInstances)
	}
	return out
}

func newPowerChief() core.Policy { return core.NewPowerChief(core.DefaultConfig()) }

// setupLive builds the live cluster, its loadgen target and the control
// loop. Untraced, PowerChief is attached through LiveTarget.AttachControl;
// a traced pass mirrors AttachControl so the completion ingest can carry a
// span wrapper.
func setupLive(seed int64, ring int, tr *tracer) (*wallEnv, error) {
	e := &wallEnv{kind: wlLiveClosed, budget: wallBudget(), baseline: runtime.NumGoroutine()}
	a := app.Sirius()
	specs := make([]live.StageSpec, len(a.Stages))
	for i, sp := range a.Stages {
		specs[i] = live.StageSpec{Name: sp.Name, Kind: sp.Kind, Profile: sp.Profile(), Instances: wallInstances[i], Level: cmp.MidLevel}
	}
	cluster, err := live.NewCluster(live.Options{Cores: 16, Budget: e.budget, TimeScale: wallTimeScale}, specs)
	if err != nil {
		return nil, err
	}
	e.cluster = cluster
	lt := loadgen.NewLiveTarget(cluster)
	e.target = lt
	interval := time.Duration(float64(wallCtlInterval) / wallTimeScale) // virtual
	in := instrument{ticks: &e.ticks, tr: tr}
	if tr == nil {
		e.loop, err = lt.AttachControl(loadgen.ControlOptions{Policy: in.policy(newPowerChief, false)(), Interval: interval})
	} else {
		agg := core.NewAggregatorOptions(interval, cluster.Now, core.AggregatorOptions{Window: core.WindowBucketed})
		ingests := tr.counter("core.ingest")
		cluster.OnComplete(func(q *query.Query) {
			if n := ingests.Add(1); n%sampleEvery == 0 {
				s := tr.begin("core.ingest", noSpan, uint64(q.ID))
				agg.Ingest(q)
				tr.end(s)
				return
			}
			agg.Ingest(q)
		})
		e.loop, err = controlplane.Start(cluster.Clock(), controlplane.NewAdjuster(cluster, agg), controlplane.Options{
			Policy:   in.policy(newPowerChief, true)(),
			Interval: interval,
		})
	}
	if err != nil {
		cluster.Close()
		return nil, err
	}
	e.works = drawWorks(seed, wlLiveClosed, ring)
	return e, nil
}

// setupDist hosts three loopback StageServices, dials the center with
// delta-batched ingest and starts the control loop on the wall clock — what
// DistTarget.AttachControl does, with the center behind a timing Adjuster so
// a tick includes its MethodStats polls.
func setupDist(seed int64, ring int, tr *tracer) (*wallEnv, error) {
	e := &wallEnv{kind: wlDistClosed, budget: wallBudget(), baseline: runtime.NumGoroutine()}
	a := app.Sirius()
	var addrs []string
	for i, sp := range a.Stages {
		svc, err := dist.NewStageService(dist.StageOptions{
			Name: sp.Name, Kind: sp.Kind, MemBound: sp.MemBound,
			Instances: wallInstances[i], Level: cmp.MidLevel, Cores: 16, TimeScale: wallTimeScale,
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.services = append(e.services, svc)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	// The stage services keep virtual time, so the flush interval is the
	// control interval expressed in it; a default 100 ms of virtual time
	// would be 10 ns of wall time and flush on every completion.
	center, err := dist.NewCenterOptions(e.budget, distStatsWindow, addrs, dist.CenterOptions{
		IngestBatch:    distIngestBatch,
		IngestInterval: time.Duration(float64(wallCtlInterval) / wallTimeScale),
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.center = center
	e.target = loadgen.NewDistTarget(center)
	in := instrument{ticks: &tickLog{}, tr: tr} // policy time is a child span; the tick log takes whole adjusts
	adj := &timedAdjuster{inner: center, ticks: &e.ticks, tr: tr}
	e.loop, err = controlplane.Start(controlplane.WallClock(1), adj, controlplane.Options{
		Policy:   in.policy(newPowerChief, tr != nil)(),
		Interval: wallCtlInterval,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.works = drawWorks(seed, wlDistClosed, ring)
	return e, nil
}

// close stops the loop and tears the deployment down; safe on a partly
// built environment.
func (e *wallEnv) close() error {
	if e.loop != nil {
		e.loop.Stop()
	}
	if e.center != nil {
		e.center.Close()
	}
	for _, svc := range e.services {
		svc.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	return nil
}

// closedSlices is how many equal slices the measured window is cut into;
// throughput and latency quantiles are taken per slice and the median slice
// is reported.
const closedSlices = 10

// closedResult is what the closed-loop driver measured.
type closedResult struct {
	// latNS holds, per slice of the measured window, the round trips (in
	// nanoseconds) of operations that started after warm-up and completed
	// inside the slice.
	latNS     [closedSlices][]uint32
	slices    [closedSlices]int64 // completions per slice
	sliceLen  time.Duration
	attempted int64
	failed    int64
	lastErr   error
}

// closedLoop drives target with `clients` goroutines, each issuing its next
// operation only when the previous one returned, for `box` of wall time.
// Throughput is completions inside the measured window (box minus warm-up)
// over that window — the driver's own arithmetic, per one-tenth slice so a
// median can be taken. Every 1000th operation becomes a span when traced.
func closedLoop(target loadgen.Target, works [][][]time.Duration, clients int, box time.Duration, tr *tracer) closedResult {
	warm := time.Duration(float64(box) * wallWarmShare)
	sliceLen := (box - warm) / closedSlices
	outs := make([]closedResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			op := &loadgen.Op{}
			t0 := time.Since(start)
			for k := 0; t0 < box; k++ {
				seq := k*clients + c
				op.ID = query.ID(seq + 1)
				op.Work = works[seq%len(works)]
				span := noSpan
				if tr != nil && seq%sampleEvery == 0 {
					span = tr.begin("loadgen.do", noSpan, uint64(seq))
				}
				err := target.Do(op)
				tr.end(span)
				t1 := time.Since(start)
				out.attempted++
				if err != nil {
					out.failed++
					out.lastErr = err
				} else if s := int((t1 - warm) / sliceLen); t1 >= warm && s < closedSlices {
					out.slices[s]++
					if t0 >= warm {
						d := t1 - t0
						if d > time.Duration(^uint32(0)) {
							d = time.Duration(^uint32(0))
						}
						out.latNS[s] = append(out.latNS[s], uint32(d))
					}
				}
				t0 = t1
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{sliceLen: sliceLen}
	for i := range outs {
		for s := range res.slices {
			res.slices[s] += outs[i].slices[s]
			res.latNS[s] = append(res.latNS[s], outs[i].latNS[s]...)
		}
		res.attempted += outs[i].attempted
		res.failed += outs[i].failed
		if outs[i].lastErr != nil {
			res.lastErr = outs[i].lastErr
		}
	}
	tr.counter("loadgen.do").Add(res.attempted)
	return res
}

// sliceRates converts per-slice completion counts to operations per second.
func (r closedResult) sliceRates() []float64 {
	out := make([]float64, len(r.slices))
	for i, n := range r.slices {
		out[i] = float64(n) / r.sliceLen.Seconds()
	}
	return out
}

// latUS returns the round trips in microseconds, per slice.
func (r closedResult) latUS() [][]float64 {
	out := make([][]float64, len(r.latNS))
	for s, ns := range r.latNS {
		out[s] = make([]float64, len(ns))
		for i, v := range ns {
			out[s][i] = float64(v) / 1e3
		}
	}
	return out
}

// finish applies the wall-clock output checks: every operation completed,
// the engine's own counters agree, the draw is inside the budget, and after
// Close no goroutine is left behind.
func (e *wallEnv) finish(r closedResult, res *RunResult) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	if r.failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d operations failed, last: %v", r.failed, r.attempted, r.lastErr))
	}
	e.loop.Stop()
	if errs, last := e.loop.Errors(); errs > 0 {
		res.check(false, "%d control ticks failed, last: %v", errs, last)
	}
	switch e.kind {
	case wlLiveClosed:
		sub, done := e.cluster.Submitted(), e.cluster.Completed()
		res.check(sub == done && int64(done) == r.attempted-r.failed, "live cluster submitted %d, completed %d, driver saw %d", sub, done, r.attempted-r.failed)
		res.check(e.cluster.Draw() <= e.budget+1e-9, "live draw %.3fW over budget %.3fW", float64(e.cluster.Draw()), float64(e.budget))
	case wlDistClosed:
		sub, done := e.center.Counts()
		res.check(sub == done && int64(done) == r.attempted-r.failed, "dist center submitted %d, completed %d, driver saw %d", sub, done, r.attempted-r.failed)
		res.check(e.center.Draw() <= e.budget+1e-9, "dist draw %.3fW over budget %.3fW", float64(e.center.Draw()), float64(e.budget))
		// Sequence "gaps" are not checked: with two queries in flight a
		// stage's deltas can be folded out of order, which the center counts
		// as a gap although nothing was lost.
		deltas, _, records, _ := e.center.IngestCounts()
		res.check(records == 0 && (deltas > 0 || r.attempted < distIngestBatch),
			"dist ingest: %d deltas, %d per-record frames after %d queries", deltas, records, r.attempted)
	}
	e.close()
	res.check(goroutinesSettle(e.baseline), "%d goroutines left after Close, %d before set-up", runtime.NumGoroutine(), e.baseline)
}

// goroutinesSettle waits briefly for the goroutine count to fall back to
// the pre-run value (connection readers exit asynchronously after Close).
func goroutinesSettle(baseline int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// clients is the closed-loop client count of the deployment's workload.
func (e *wallEnv) clients() int {
	if e.kind == wlDistClosed {
		return distClients
	}
	return liveClients
}

func setupWall(cfg runConfig, tr *tracer) (*wallEnv, error) {
	ring := int(wallWorkRing * cfg.scale)
	if ring < 64 {
		ring = 64
	}
	if cfg.workload == wlLiveClosed {
		return setupLive(cfg.seed, ring, tr)
	}
	return setupDist(cfg.seed, ring, tr)
}

// runWall runs live-closed or dist-closed with tracing off.
func runWall(cfg runConfig, e *wallEnv, res *RunResult) error {
	settle()
	r := closedLoop(e.target, e.works, e.clients(), cfg.box(), nil)
	res.measured()
	ticks := e.ticks.snapshot()
	if e.kind == wlDistClosed {
		deltas, _, _, _ := e.center.IngestCounts()
		res.Detail["stat_rpcs_per_query"] = float64(deltas) / float64(r.attempted)
	}
	e.finish(r, res)
	res.Units = closedSlices
	rates := r.sliceRates()
	lat, n := unitQuantiles(r.latUS(), 0.50, 0.99)
	res.Metrics.set("ops_per_s", median(rates), len(rates))
	res.Metrics.set("lat_us_p50", lat[0], n)
	res.Detail["lat_us_p99"] = lat[1]
	res.Detail["ctl_ticks"] = float64(len(ticks))
	res.Detail["ctl_tick_us_p50"] = quantile(durationsUS(ticks), 0.5)
	return nil
}

// traceWall is the traced pass of a wall-clock workload: one deployment
// untraced, then a second with span wrappers on the client call, the
// completion ingest and the control tick.
func traceWall(cfg runConfig, res *RunResult, tr *tracer) (*tracedPass, error) {
	box := cfg.box() / 4
	plainEnv, err := setupWall(cfg, nil)
	if err != nil {
		return nil, err
	}
	settle()
	plain := closedLoop(plainEnv.target, plainEnv.works, plainEnv.clients(), box, nil)
	plainEnv.finish(plain, res)

	tracedEnv, err := setupWall(cfg, tr)
	if err != nil {
		return nil, err
	}
	settle()
	traced := closedLoop(tracedEnv.target, tracedEnv.works, tracedEnv.clients(), box, tr)
	ticks := tracedEnv.ticks.snapshot()
	tracedEnv.finish(traced, res)
	res.Units = closedSlices
	p99, n := unitQuantiles(plain.latUS(), 0.99)
	return &tracedPass{
		p99US:      p99[0],
		p99N:       n,
		ticks:      ticks,
		busy:       box,
		plainRate:  median(plain.sliceRates()),
		tracedRate: median(traced.sliceRates()),
	}, nil
}
