package powerchief

// Microbenchmarks of the framework's hot paths:
//
//	go test -run '^$' -bench=. -benchmem
//
// The benches regenerating the evaluation's tables and figures live next
// to the table, in internal/harness.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/live"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// BenchmarkTable1Metrics exercises every Table 1 latency metric over the
// same ranking workload, reporting how often each metric disagrees with the
// combined Equation 1 metric on the bottleneck — the quantitative basis for
// §4.2's argument that historical metrics alone misidentify bottlenecks.
func BenchmarkTable1Metrics(b *testing.B) {
	base, err := Run(Scenario{
		Name: "table1", App: Sirius(), Level: MidLevel, Budget: 13.56,
		Source: ConstantLoad(HighLoad), Duration: 300 * time.Second, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = base
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rank a synthetic population under each metric.
		disagree := 0
		trials := 100
		rng := rand.New(rand.NewSource(42))
		for t := 0; t < trials; t++ {
			sys, agg := syntheticRankingState(rng)
			full := core.Identifier{Metric: core.MetricExpectedDelay}.Rank(sys, agg)
			hist := core.Identifier{Metric: core.MetricAvgProcessing}.Rank(sys, agg)
			if full[0].Instance.Name() != hist[0].Instance.Name() {
				disagree++
			}
		}
		b.ReportMetric(float64(disagree)/float64(trials), "hist-vs-eq1-disagreement")
	}
}

// --- Microbenchmarks of the framework hot paths ----------------------------

// BenchmarkDESEngine measures raw event throughput of the simulator: a
// self-rescheduling chain on a fresh event per firing (Schedule), and on one
// caller-owned event (Arm) — the shape of an instance's completions and a
// generator's arrivals.
func BenchmarkDESEngine(b *testing.B) {
	chain := func(b *testing.B, queue func(eng *sim.Engine, fn func())) {
		b.ReportAllocs()
		eng := sim.NewEngine()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				queue(eng, tick)
			}
		}
		queue(eng, tick)
		b.ResetTimer()
		eng.Run()
	}
	b.Run("schedule", func(b *testing.B) {
		chain(b, func(eng *sim.Engine, fn func()) { eng.Schedule(time.Microsecond, fn) })
	})
	b.Run("arm", func(b *testing.B) {
		var ev sim.Event
		chain(b, func(eng *sim.Engine, fn func()) { eng.Arm(&ev, time.Microsecond, fn) })
	})
}

// BenchmarkWindowTails measures the exact end-to-end window's read on every
// captured control tick: an aggregator whose window holds 20 k samples,
// gathered once and ranked at the snapshot's four-point grid.
func BenchmarkWindowTails(b *testing.B) {
	clk := time.Duration(0)
	agg := core.NewAggregator(time.Hour, func() time.Duration { return clk })
	rng := rand.New(rand.NewSource(7))
	q := query.New(0, 0, nil)
	for i := 0; i < 20000; i++ {
		clk = time.Duration(i) * time.Millisecond
		q.ID, q.Done = query.ID(i), time.Duration(1+rng.Intn(5000))*time.Millisecond
		agg.Ingest(q)
	}
	clk = 20 * time.Second
	grid := []float64{0.5, 0.9, 0.99, 0.999}
	out := make([]time.Duration, len(grid))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !agg.WindowTails(grid, out) {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkScenarioThroughput measures simulated queries per wall second
// for a full PowerChief-managed Sirius run: ≈ 1.4 ms, 640 allocs and 159 KB
// per 900 s run of ≈ 1700 queries (93 B per query — the statistics windows,
// the latency summary, the control ticks and the queries the run had in
// flight at once; the generator recycles the rest). It cycles eight seeds,
// so ns/op does not drift with b.N, and reports the heap bytes allocated per
// query and the collections per run next to the queries per run.
func BenchmarkScenarioThroughput(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var queries uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(Scenario{
			Name: "bench", App: Sirius(), Level: MidLevel, Budget: 13.56,
			Policy: PowerChiefPolicy(),
			Source: ConstantLoad(HighLoad), Duration: 900 * time.Second, Seed: int64(i % 8),
		})
		if err != nil {
			b.Fatal(err)
		}
		queries += res.Completed
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(queries), "B/query")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

// syntheticRankingState builds a small in-memory system + aggregator for
// identifier benchmarks.
func syntheticRankingState(rng *rand.Rand) (core.System, *core.Aggregator) {
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 1000)
	specs := []stage.Spec{
		{Name: "A", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.2), Instances: 3, Level: cmp.MidLevel},
		{Name: "B", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.3), Instances: 3, Level: cmp.MidLevel},
	}
	sys, err := stage.NewSystem(eng, chip, specs)
	if err != nil {
		panic(err)
	}
	agg := core.NewAggregator(25*time.Second, eng.Now)
	// Feed random completions and backlogs.
	for i := 0; i < 30; i++ {
		q := query.New(query.ID(i), 0, nil)
		for _, st := range sys.Stages() {
			for _, in := range st.Instances() {
				serve := time.Duration(rng.Intn(500)) * time.Millisecond
				wait := time.Duration(rng.Intn(300)) * time.Millisecond
				q.Append(query.Record{Instance: in.Name(), QueueEnter: 0, ServeStart: wait, ServeEnd: wait + serve})
			}
		}
		q.Done = time.Second
		agg.Ingest(q)
	}
	// Random realtime backlogs via direct submissions.
	view := core.NewDESView(sys)
	for i := 0; i < rng.Intn(20); i++ {
		sys.Submit(query.New(query.ID(1000+i), 0, [][]time.Duration{{time.Hour}, {time.Hour}}))
	}
	return view, agg
}

// BenchmarkBottleneckIdentification measures Equation 1 ranking over a
// six-instance deployment.
func BenchmarkBottleneckIdentification(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sys, agg := syntheticRankingState(rng)
	id := core.Identifier{Metric: core.MetricExpectedDelay}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ranked := id.Rank(sys, agg); len(ranked) == 0 {
			b.Fatal("empty ranking")
		}
	}
}

// BenchmarkAggregatorIngest measures folding one completed three-stage
// query's records into the moving windows, on one goroutine, with the DES
// harness's aggregator (exact windows). The query is built once:
// only Ingest is timed. "named" finds each instance by name, as the live and
// dist engines' records make it; "slotted" carries the slots the DES stamps.
func BenchmarkAggregatorIngest(b *testing.B) {
	for _, bc := range []struct {
		name  string
		slots [3]uint32
	}{
		{"named", [3]uint32{}},
		{"slotted", [3]uint32{1, 2, 3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			clk := time.Duration(0)
			agg := core.NewAggregator(25*time.Second, func() time.Duration { return clk })
			q := query.New(0, 0, nil)
			for i, inst := range [...]string{"ASR_1", "IMM_1", "QA_1"} {
				q.Append(query.Record{Instance: inst, Slot: bc.slots[i], QueueEnter: 0, ServeStart: time.Millisecond, ServeEnd: 10 * time.Millisecond})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk += time.Millisecond
				q.ID, q.Arrival, q.Done = query.ID(i), clk-time.Second, clk
				agg.Ingest(q)
			}
		})
	}
}

// BenchmarkAggregatorIngestParallel measures concurrent completion ingest —
// many instance goroutines folding completed queries into one aggregator at
// once, the hot path of the live and distributed engines. Each worker owns a
// disjoint instance triple (different instances complete on different
// cores), the end-to-end latency window takes every completion, and the
// virtual clock advances ~1ms per completion so the windows run in eviction
// steady state.
//
// The aggregator folds each query under its one lock, so with more than one
// CPU the workers serialize there; no benchmark workload runs contending
// writers, so this is measured, not gated. EXPERIMENTS.md,
// "Statistics-pipeline ingest" and "One lock", records the numbers.
func BenchmarkAggregatorIngestParallel(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts core.AggregatorOptions
	}{
		{"exact", core.AggregatorOptions{}},
		{"bucketed", core.AggregatorOptions{Window: core.WindowBucketed}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var clk atomic.Int64
			agg := core.NewAggregatorOptions(25*time.Second, func() time.Duration {
				return time.Duration(clk.Load())
			}, bc.opts)
			var worker atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				names := [...]string{
					fmt.Sprintf("ASR_%d", w),
					fmt.Sprintf("IMM_%d", w),
					fmt.Sprintf("QA_%d", w),
				}
				var n uint64
				for pb.Next() {
					n++
					// One worker advances the virtual clock; the rest only
					// read it — like the wall clock the live engines use.
					if w == 1 {
						clk.Add(int64(time.Millisecond))
					}
					at := time.Duration(clk.Load())
					q := query.New(query.ID(w<<32|n), at-time.Second, nil)
					for _, inst := range names {
						q.Append(query.Record{Instance: inst, QueueEnter: at - time.Second, ServeStart: at - 900*time.Millisecond, ServeEnd: at})
					}
					q.Done = at
					agg.Ingest(q)
				}
			})
		})
	}
}

// BenchmarkChipDVFS measures budget-checked frequency transitions.
func BenchmarkChipDVFS(b *testing.B) {
	chip := cmp.NewChip(16, cmp.DefaultModel(), 1000)
	id, err := chip.Allocate(cmp.MidLevel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := cmp.Level(i % cmp.NumLevels)
		if err := chip.SetLevel(id, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerRecycle measures Algorithm 2 against a ten-donor ranking.
func BenchmarkPowerRecycle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sys, agg := syntheticRankingState(rng)
	id := core.Identifier{Metric: core.MetricExpectedDelay}
	ranked := id.Rank(sys, agg)
	model := sys.PowerModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		donors := core.DonorsFromRanking(ranked, ranked[0].Instance)
		// Recycle then restore a small amount each iteration.
		r := core.Recycler{}
		freed := r.Recycle(model, donors, 0.5)
		for _, d := range donors {
			_ = d.SetLevel(cmp.MidLevel)
		}
		_ = freed
	}
}

// BenchmarkWorkloadDraw measures per-query demand sampling for Sirius.
func BenchmarkWorkloadDraw(b *testing.B) {
	a := app.Sirius()
	rng := rand.New(rand.NewSource(1))
	branches := []int{1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := a.DrawWork(rng, branches); len(w) != 3 {
			b.Fatal("bad draw")
		}
	}
}

// --- Telemetry overhead ----------------------------------------------------

// benchLiveRoundTrip drives one query at a time through a single-stage live
// cluster and measures the submit→complete round trip — the hot path the
// telemetry hooks sit on. attach plumbs in the variant under test before the
// timer starts.
func benchLiveRoundTrip(b *testing.B, attach func(*live.Cluster)) {
	b.Helper()
	model := cmp.DefaultModel()
	cluster, err := live.NewCluster(live.Options{
		Cores:     4,
		Model:     model,
		Budget:    cmp.Watts(4) * model.MaxPower(),
		TimeScale: 1e-3,
	}, []live.StageSpec{{
		Name:      "S",
		Kind:      stage.Pipeline,
		Profile:   cmp.NewRooflineProfile(0.2),
		Instances: 1,
		Level:     cmp.MidLevel,
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	done := make(chan struct{})
	cluster.OnComplete(func(*query.Query) { done <- struct{}{} })
	if attach != nil {
		attach(cluster)
	}
	work := [][]time.Duration{{100 * time.Microsecond}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := query.New(query.ID(i), cluster.Now(), work)
		if err := cluster.Submit(q); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// BenchmarkLiveHotPathBare is the no-telemetry baseline for
// BenchmarkTelemetryDisabled — nothing observability-related on the
// completion path.
func BenchmarkLiveHotPathBare(b *testing.B) { benchLiveRoundTrip(b, nil) }

// BenchmarkTelemetryDisabled measures the same round trip with telemetry
// plumbed in but switched off: a disabled (nil) tracer's ObserveQuery is
// registered on the completion path, exactly how the stage service wires it
// when -trace.sample is 0. The disabled path is a single nil-receiver test
// per completion; compare ns/op against BenchmarkLiveHotPathBare — the
// delta stays within benchmark noise (≪2%).
func BenchmarkTelemetryDisabled(b *testing.B) {
	benchLiveRoundTrip(b, func(c *live.Cluster) {
		var tracer *telemetry.Tracer // disabled: every method is a nil-safe no-op
		c.OnComplete(tracer.ObserveQuery)
	})
}

// BenchmarkTelemetryEnabled is the contrast case: tracing on and sampling
// every query, so each completion materializes a span tree into the ring.
func BenchmarkTelemetryEnabled(b *testing.B) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Sample: 1})
	benchLiveRoundTrip(b, func(c *live.Cluster) {
		c.OnComplete(tracer.ObserveQuery)
	})
}

// BenchmarkPoissonGeneration measures arrival scheduling through the DES.
func BenchmarkPoissonGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		chip := cmp.NewChip(16, cmp.DefaultModel(), 1000)
		specs, _ := app.Sirius().Specs(nil, cmp.MaxLevel)
		sys, err := stage.NewSystem(eng, chip, specs)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		a := app.Sirius()
		gen := workload.NewGenerator(eng, sys, workload.Constant(50), func(r *rand.Rand) [][]time.Duration {
			return a.DrawWork(r, []int{1, 1, 1})
		}, rng, 100*time.Second)
		gen.Start()
		eng.RunUntil(100 * time.Second)
	}
}
