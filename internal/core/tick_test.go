package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/telemetry"
)

// mapStats is a StatsReader over fixed per-instance means, for tests that
// need exact control of the ranking inputs.
type mapStats map[string][2]time.Duration

func (m mapStats) InstStats(name string) (time.Duration, time.Duration, bool) {
	v, ok := m[name]
	return v[0], v[1], ok
}
func (mapStats) WindowLatency() (time.Duration, bool)        { return 0, false }
func (mapStats) WindowTail(float64) (time.Duration, bool)    { return 0, false }
func (mapStats) WindowTails([]float64, []time.Duration) bool { return false }

// referenceRank is the ranking as it was written before the typed sort: rows
// appended in visit order, then sort.SliceStable by metric descending and
// name ascending.
func referenceRank(id Identifier, sys System, stats StatsReader) []Ranked {
	var out []Ranked
	for _, st := range sys.Stages() {
		for _, in := range st.Instances() {
			q, s, _ := stats.InstStats(in.Name())
			out = append(out, Ranked{Instance: in, Stage: st, Metric: id.eval(in.QueueLen(), q, s), Queuing: q, Serving: s, QueueLen: in.QueueLen()})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Metric != out[j].Metric {
			return out[i].Metric > out[j].Metric
		}
		return out[i].Instance.Name() < out[j].Instance.Name()
	})
	return out
}

// TestRankMatchesReferenceOrder: over random deployments whose metrics tie
// often and whose names share prefixes ("QA_1", "QA_10", "QA_11") or repeat
// outright across stages, Rank returns exactly the reference order — same
// instance, by identity, at every position — for every metric, on the live
// system and through a PlanView.
func TestRankMatchesReferenceOrder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := &fakeSystem{model: cmp.DefaultModel(), budget: 1000, freeCores: 4}
		stats := mapStats{}
		for s, stages := 0, 1+rng.Intn(10); s < stages; s++ {
			st := &fakeStage{name: []string{"QA", "QA_1", "ASR", "IMM"}[rng.Intn(4)], scalable: true, profile: cmp.NewRooflineProfile(0.2), sys: sys}
			for i, n := 0, rng.Intn(6); i < n; i++ {
				in := &fakeInstance{
					name:     fmt.Sprintf("%s_%d", st.name, 1+rng.Intn(12)), // repeats within and across stages
					stage:    st.name,
					queueLen: rng.Intn(3),
					level:    cmp.MidLevel,
					sys:      sys,
				}
				st.ins = append(st.ins, in)
				// Three distinct values per mean: ties are the common case.
				stats[in.name] = [2]time.Duration{time.Duration(rng.Intn(3)) * time.Second, time.Duration(rng.Intn(3)) * time.Second}
			}
			sys.stages = append(sys.stages, st)
		}
		for _, m := range []Metric{MetricExpectedDelay, MetricAvgQueuing, MetricAvgServing, MetricAvgProcessing} {
			id := Identifier{Metric: m}
			for _, view := range []System{sys, NewPlanView(sys)} {
				want, got := referenceRank(id, view, stats), id.Rank(view, stats)
				if len(got) != len(want) {
					t.Fatalf("seed %d %v: ranked %d instances, reference %d", seed, m, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %v position %d: got %s (%v), reference %s (%v)", seed, m, i,
							got[i].Instance.Name(), got[i].Metric, want[i].Instance.Name(), want[i].Metric)
					}
				}
			}
		}
	}
}

// TestPowerChiefRanksOncePerTick: a ranking reads every instance's queue
// length exactly once, so the reads per instance count the rankings of a
// tick. An ordinary tick ranks once (Plan's, through the overlay); only the
// tick whose withdraw epoch is due ranks the live system as well.
func TestPowerChiefRanksOncePerTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BalanceThreshold = time.Hour // Plan stops after ranking
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	agg := aggWith(sys, 25*time.Second)
	pc := NewPowerChief(cfg)
	rankings := func(now time.Duration) int {
		for _, st := range sys.stages {
			for _, in := range st.ins {
				in.queueReads = 0
			}
		}
		sys.now = now
		pc.Adjust(sys, agg)
		n := sys.inst("A_1").queueReads
		if m := sys.inst("B_1").queueReads; m != n {
			t.Fatalf("at %v: A_1 read %d times, B_1 %d", now, n, m)
		}
		return n
	}
	for _, tick := range []struct {
		now  time.Duration
		want int
		what string
	}{
		{25 * time.Second, 1, "first tick (anchors the epoch)"},
		{50 * time.Second, 1, "ordinary tick"},
		{175 * time.Second, 2, "withdraw-epoch tick"},
		{200 * time.Second, 1, "tick after the epoch"},
		{325 * time.Second, 2, "next withdraw-epoch tick"},
	} {
		if got := rankings(tick.now); got != tick.want {
			t.Errorf("%s at %v: %d rankings, want %d", tick.what, tick.now, got, tick.want)
		}
	}
}

// TestPlanViewResolvesUnderlyingInstances: without the instance map, a
// reference to an underlying instance still resolves to the one wrapper the
// view made for it — in its own stage or another — and the ranking, the
// donor list and the stage listing all hold that same wrapper.
func TestPlanViewResolvesUnderlyingInstances(t *testing.T) {
	sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
	stA := sys.stage("A")
	stA.ins = append(stA.ins, &fakeInstance{name: "A_2", stage: "A", level: cmp.MidLevel, sys: sys})
	sys.draw += sys.model.Power(cmp.MidLevel)
	stats := mapStats{"A_1": {0, 3 * time.Second}, "A_2": {0, 2 * time.Second}, "B_1": {0, time.Second}}

	pv := NewPlanView(sys)
	ranked := Identifier{}.Rank(pv, stats)
	listed := pv.Stages()[0].Instances()
	if ranked[0].Instance != listed[0] || ranked[1].Instance != listed[1] {
		t.Fatal("ranking and stage listing hold different wrappers for the same instance")
	}
	donors := DonorsFromRanking(ranked, listed[0])
	if len(donors) != 2 || donors[0] != Instances(pv)[2] || donors[1] != listed[1] {
		t.Fatalf("donor exclusion by identity broke: %d donors", len(donors))
	}

	// An underlying instance handed to the overlay resolves to its wrapper:
	// the clone charges the planned budget once and names the real source,
	// and a withdraw marks the very wrapper the listing holds.
	ps := pv.Stages()[0].(*planStage)
	if ps.lookup(stA.ins[1]) != listed[1] {
		t.Error("underlying instance resolved to a different wrapper")
	}
	if pv.Stages()[1].(*planStage).lookup(stA.ins[0]) != listed[0] {
		t.Error("underlying instance of another stage did not resolve")
	}
	if ps.lookup(&fakeInstance{name: "A_1"}) != nil {
		t.Error("a foreign instance with a known name resolved by name, not identity")
	}
	clone, err := pv.Stages()[0].Clone(stA.ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if act := pv.Take().Actions[0].(*CloneAction); act.Source != Instance(stA.ins[0]) {
		t.Error("clone action does not name the underlying source")
	}
	if err := pv.Stages()[0].Withdraw(stA.ins[1], clone); err != nil {
		t.Fatal(err)
	}
	if left := pv.Stages()[0].Instances(); len(left) != 2 || left[0] != listed[0] || left[1] != clone {
		t.Error("withdraw through an underlying reference did not mark the listed wrapper")
	}
}

// TestWindowTailsMatchesWindowTail: one multi-quantile read returns exactly
// what one WindowTail call per grid point does — exact and bucketed windows,
// one stripe and many, empty, single-sample and populated — and a capture's
// SnapshotView serves the same grid back through both.
func TestWindowTailsMatchesWindowTail(t *testing.T) {
	grid := []float64{0.5, 0.9, 0.99, 0.999, 0, 1, -1, 2}
	for _, kind := range []WindowKind{WindowExact, WindowBucketed} {
		for _, stripes := range []int{1, 8} {
			for _, samples := range []int{0, 1, 2, 500} {
				name := fmt.Sprintf("kind=%d/stripes=%d/samples=%d", kind, stripes, samples)
				sys := newFakeSystem(100, 8, cmp.MidLevel, "A")
				agg := NewAggregatorOptions(25*time.Second, func() time.Duration { return sys.now }, AggregatorOptions{Window: kind, Stripes: stripes})
				rng := rand.New(rand.NewSource(int64(samples)))
				for i := 0; i < samples; i++ {
					sys.now += time.Duration(rng.Intn(100)) * time.Millisecond // old samples fall out of the window
					ingestLatency(agg, i, time.Duration(1+rng.Intn(5000))*time.Millisecond)
				}
				checkTails(t, name, agg, grid, samples > 0)
				snap := CaptureSnapshot(sys, agg)
				p50, _ := agg.WindowTail(0.5)
				p999, _ := agg.WindowTail(0.999)
				if snap.Window.OK != (samples > 0) || snap.Window.P50 != p50 || snap.Window.P999 != p999 {
					t.Errorf("%s: capture window %+v, aggregator p50 %v p999 %v", name, snap.Window, p50, p999)
				}
				checkTails(t, name+"/replayed", NewSnapshotView(snap), grid, samples > 0)
			}
		}
	}
}

// ingestLatency folds one completed query with the given end-to-end latency
// (and a distinct ID, so the stripes all fill) into the aggregator.
func ingestLatency(agg *Aggregator, id int, latency time.Duration) {
	q := query.New(query.ID(id), 0, nil)
	q.Done = latency
	agg.Ingest(q)
}

func checkTails(t *testing.T, name string, stats StatsReader, grid []float64, wantOK bool) {
	t.Helper()
	got := make([]time.Duration, len(grid))
	if ok := stats.WindowTails(grid, got); ok != wantOK {
		t.Errorf("%s: WindowTails ok = %v, want %v", name, ok, wantOK)
	}
	for i, p := range grid {
		want, ok := stats.WindowTail(p)
		if ok != wantOK || (ok && got[i] != want) {
			t.Errorf("%s: p=%v: WindowTails %v, WindowTail %v,%v", name, p, got[i], want, ok)
		}
	}
}

// TestAllocationsPerControlTick pins what a control tick allocates on the
// des-ctl-dense deployment (Sirius 3,2,6: 11 instances), next to the
// per-query guard in internal/harness. A ranking reads 7 and a recorded tick
// 46.8 (16 and 127 before the tick did each piece of work once). The tick's
// ceiling sits 9 %, not 20 %, above the reading on purpose: a second live
// ranking adds exactly 7 and has to trip it.
func TestAllocationsPerControlTick(t *testing.T) {
	f := newTickFixture(t)
	id := Identifier{Metric: MetricExpectedDelay}
	if got := testing.AllocsPerRun(100, func() { sinkRanked = id.Rank(f.view, f.agg) }); got > 8 {
		t.Errorf("Rank allocates %.1f times per call, ceiling 8", got)
	}

	pc := NewPowerChief(DefaultConfig())
	pc.SetTap(&lastTap{})
	const ticks = 100
	var total float64
	for i := 0; i < ticks; i++ {
		f.advance(time.Second)
		total += testing.AllocsPerRun(1, func() { pc.Adjust(f.view, f.agg) })
	}
	if got := total / ticks; got > 51 {
		t.Errorf("a recorded PowerChief tick allocates %.1f times, ceiling 51", got)
	}
}

// spyPlanner keeps the plan its planner last emitted.
type spyPlanner struct {
	Planner
	plan *ActionPlan
}

func (s *spyPlanner) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	plan, out := s.Planner.Plan(sys, stats)
	s.plan = plan
	return plan, out
}

// countTap keeps every decision frame.
type countTap struct{ recs []DecisionRecord }

func (t *countTap) RecordDecision(rec DecisionRecord) { t.recs = append(t.recs, rec) }

// eventShape reduces an audit trail to its kinds, the three boost-* kinds
// folded into "outcome".
func eventShape(events []telemetry.Event) []string {
	out := []string{}
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EventBoostFreq, telemetry.EventBoostInst, telemetry.EventBoostNone:
			out = append(out, "outcome")
		default:
			out = append(out, string(ev.Kind))
		}
	}
	return out
}

// TestTickIsTheOneActuationPath drives every core planner through Tick with
// an audit log and a tap, and again — fresh planner, identical deployment —
// through its own Adjust with the same two attached. Each tick hands the tap
// exactly one record whose plan is the encoding of what Plan returned and
// whose outcome is what the tick reported; the audit trail reads identify →
// recycle / withdraw / deboost / relaunch → outcome; a mid-plan failure
// reports BoostNone with the target kept and a plan-rollback instead of an
// outcome; and Adjust leaves the very same trail and record behind.
func TestTickIsTheOneActuationPath(t *testing.T) {
	tight := func() (*fakeSystem, *Aggregator) {
		// Boosting the bottleneck needs recycling from the donors first.
		sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B", "C")
		sys.budget = sys.draw + 0.1
		agg := agg0(sys)
		ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
		ingestStats(agg, "B_1", 0, 100*time.Millisecond)
		ingestStats(agg, "C_1", 0, 120*time.Millisecond)
		sys.inst("A_1").queueLen = 4
		return sys, agg
	}
	roomy := func() (*fakeSystem, *Aggregator) {
		sys := newFakeSystem(100, 8, cmp.MidLevel, "A", "B")
		agg := agg0(sys)
		ingestStats(agg, "A_1", 2*time.Second, 2*time.Second)
		ingestStats(agg, "B_1", 0, 100*time.Millisecond)
		sys.inst("A_1").queueLen = 4
		return sys, agg
	}
	qos := func(level cmp.Level, latency time.Duration, samples map[string]instSample, tweak func(*fakeSystem)) func() (*fakeSystem, *Aggregator) {
		return func() (*fakeSystem, *Aggregator) {
			sys := newFakeSystem(400, 8, level, "A", "B")
			if tweak != nil {
				tweak(sys)
			}
			agg := agg0(sys)
			ingestQoS(agg, samples, latency)
			return sys, agg
		}
	}
	cfg := DefaultConfig()
	boom := errors.New("rpc: connection lost")

	for _, tc := range []struct {
		name   string
		mk     func() Policy
		setup  func() (*fakeSystem, *Aggregator)
		events []string
		kind   BoostKind
		target string
		clone  string // realized clone name the outcome must carry
		failed bool
	}{
		{name: "baseline", mk: func() Policy { return Static{} }, setup: roomy, events: []string{}},
		{name: "freq-boost recycles", mk: func() Policy { return NewFreqBoost(cfg) }, setup: tight,
			events: []string{"identify", "recycle", "outcome"}, kind: BoostFrequency, target: "A_1"},
		{name: "freq-boost mid-plan failure", mk: func() Policy { return NewFreqBoost(cfg) },
			setup: func() (*fakeSystem, *Aggregator) {
				sys, agg := tight()
				sys.inst("A_1").setLevelErr = boom // dies after the donors lowered
				return sys, agg
			},
			events: []string{"identify", "recycle", "plan-rollback"}, kind: BoostNone, target: "A_1", failed: true},
		{name: "inst-boost", mk: func() Policy { return NewInstBoost(cfg) }, setup: roomy,
			events: []string{"identify", "outcome"}, kind: BoostInstance, target: "A_1", clone: "A_2"},
		{name: "powerchief", mk: func() Policy { return NewPowerChief(cfg) }, setup: roomy,
			events: []string{"identify", "outcome"}, kind: BoostInstance, target: "A_1", clone: "A_2"},
		{name: "powerchief balanced", mk: func() Policy { return NewPowerChief(cfg) },
			setup: func() (*fakeSystem, *Aggregator) {
				sys, agg := roomy()
				sys.inst("A_1").queueLen = 0
				ingestStats(agg, "B_1", 2*time.Second, 2*time.Second) // spread under the threshold
				return sys, agg
			},
			events: []string{"identify"}},
		{name: "pegasus", mk: func() Policy { return NewPegasus(time.Second) },
			setup:  qos(cmp.MidLevel, 2*time.Second, map[string]instSample{"A_1": {0, time.Second}}, nil),
			events: []string{}, kind: BoostFrequency},
		{name: "saver relaunch", mk: func() Policy { return NewPowerChiefSaver(time.Second, cfg) },
			setup: qos(cmp.MaxLevel, 1500*time.Millisecond,
				map[string]instSample{"A_1": {300 * time.Millisecond, 500 * time.Millisecond}, "B_1": {0, 10 * time.Millisecond}},
				func(sys *fakeSystem) { sys.inst("A_1").queueLen = 5 }),
			events: []string{"identify", "relaunch", "outcome"}, kind: BoostInstance, target: "A_1", clone: "A_2"},
		{name: "saver deboost", mk: func() Policy { return NewPowerChiefSaver(time.Second, cfg) },
			setup: qos(cmp.MaxLevel, 300*time.Millisecond,
				map[string]instSample{"A_1": {100 * time.Millisecond, 600 * time.Millisecond}, "B_1": {0, 50 * time.Millisecond}}, nil),
			events: []string{"identify", "deboost"}, kind: BoostFrequency, target: "B_1"},
		{name: "saver withdraw", mk: func() Policy { return NewPowerChiefSaver(time.Second, cfg) },
			setup: qos(cmp.MaxLevel, 200*time.Millisecond,
				map[string]instSample{"A_1": {0, 200 * time.Millisecond}, "A_2": {0, 100 * time.Millisecond}, "B_1": {0, 150 * time.Millisecond}},
				func(sys *fakeSystem) {
					st := sys.stage("A")
					st.ins = append(st.ins, &fakeInstance{name: "A_2", stage: "A", level: cmp.MaxLevel, util: 0.1, sys: sys})
					sys.draw += sys.model.Power(cmp.MaxLevel)
					sys.inst("A_1").util = 0.3
					sys.inst("B_1").util = 0.3
				}),
			events: []string{"identify", "withdraw"}, target: "A_2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Through Tick, with the plan spied on.
			sys, agg := tc.setup()
			log, tap := telemetry.NewAuditLog(64), &countTap{}
			spy := &spyPlanner{Planner: tc.mk().(Planner)}
			out, res := Tick(spy, Executor{Audit: log}, tap, sys, agg)

			if (res.Err != nil) != tc.failed {
				t.Fatalf("apply err = %v, want failure %v", res.Err, tc.failed)
			}
			if tc.failed && !res.RolledBack {
				t.Error("failed plan was not rolled back")
			}
			if out.Kind != tc.kind || out.Target != tc.target || out.NewInstance != tc.clone {
				t.Errorf("outcome = %+v, want kind %v target %q clone %q", out, tc.kind, tc.target, tc.clone)
			}
			if len(tap.recs) != 1 {
				t.Fatalf("tap saw %d records for one tick", len(tap.recs))
			}
			rec := tap.recs[0]
			if rec.Snapshot == nil || !reflect.DeepEqual(rec.Plan, EncodePlan(spy.plan)) || rec.Outcome != out {
				t.Errorf("record = %+v, want the captured snapshot, EncodePlan of the plan and outcome %+v", rec, out)
			}
			shape := eventShape(log.Events())
			if !reflect.DeepEqual(shape, tc.events) {
				t.Errorf("audit trail %v, want %v", shape, tc.events)
			}

			// Through the policy's own Adjust, audit and tap attached the way
			// the control loop attaches them: the same trail, the same record.
			sys2, agg2 := tc.setup()
			log2, tap2 := telemetry.NewAuditLog(64), &countTap{}
			p := tc.mk()
			if as, ok := p.(AuditSetter); ok {
				as.SetAudit(log2)
			} else {
				shape = []string{}
			}
			ts, tapped := p.(TapSetter)
			if tapped {
				ts.SetTap(tap2)
			}
			if got := p.Adjust(sys2, agg2); got != out {
				t.Errorf("Adjust reported %+v, Tick %+v", got, out)
			}
			if got := eventShape(log2.Events()); !reflect.DeepEqual(got, shape) {
				t.Errorf("Adjust audited %v, Tick %v", got, shape)
			}
			if tapped && (len(tap2.recs) != 1 || !reflect.DeepEqual(tap2.recs[0], rec)) {
				t.Errorf("Adjust recorded %+v, Tick %+v", tap2.recs, rec)
			}
			if !tapped && len(tap2.recs) != 0 {
				t.Error("a policy without a tap recorded a decision")
			}
		})
	}
}
