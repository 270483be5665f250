package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// system and through a PlanView. Deployments of 17 and 40 instances sort keys
// on the heap, and a tie-only variant makes every metric equal.
func TestRankMatchesReferenceOrder(t *testing.T) {
	check := func(name string, sys *fakeSystem, stats mapStats) {
		t.Helper()
		for _, m := range []Metric{MetricExpectedDelay, MetricAvgQueuing, MetricAvgServing, MetricAvgProcessing} {
			id := Identifier{Metric: m}
			for _, view := range []System{sys, NewPlanView(sys)} {
				want, got := referenceRank(id, view, stats), id.Rank(view, stats)
				if len(got) != len(want) {
					t.Fatalf("%s %v: ranked %d instances, reference %d", name, m, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %v position %d: got %s (%v), reference %s (%v)", name, m, i,
							got[i].Instance.Name(), got[i].Metric, want[i].Instance.Name(), want[i].Metric)
					}
				}
			}
		}
	}
	// deploy spreads total instances (random when negative) over random
	// stages; ties draws every mean from a single value instead of three.
	deploy := func(rng *rand.Rand, total int, ties bool) (*fakeSystem, mapStats) {
		sys := &fakeSystem{model: cmp.DefaultModel(), budget: 1000, freeCores: 4}
		stats := mapStats{}
		stages := 1 + rng.Intn(10)
		for s := 0; s < stages; s++ {
			st := &fakeStage{name: []string{"QA", "QA_1", "ASR", "IMM"}[rng.Intn(4)], scalable: true, profile: cmp.NewRooflineProfile(0.2), sys: sys}
			sys.stages = append(sys.stages, st)
		}
		n := total
		if n < 0 {
			n = 0
			for range sys.stages {
				n += rng.Intn(6)
			}
		}
		values := 3
		if ties {
			values = 1
		}
		for i := 0; i < n; i++ {
			st := sys.stages[rng.Intn(stages)]
			in := &fakeInstance{
				name:     fmt.Sprintf("%s_%d", st.name, 1+rng.Intn(12)), // repeats within and across stages
				stage:    st.name,
				queueLen: rng.Intn(3),
				level:    cmp.MidLevel,
				sys:      sys,
			}
			if ties {
				in.queueLen = 1
			}
			st.ins = append(st.ins, in)
			// Few distinct values per mean: ties are the common case.
			stats[in.name] = [2]time.Duration{time.Duration(rng.Intn(values)) * time.Second, time.Duration(rng.Intn(values)) * time.Second}
		}
		return sys, stats
	}
	for seed := int64(0); seed < 200; seed++ {
		for _, total := range []int{-1, 17, 40} {
			for _, ties := range []bool{false, true} {
				sys, stats := deploy(rand.New(rand.NewSource(seed)), total, ties)
				check(fmt.Sprintf("seed %d total %d ties %v", seed, total, ties), sys, stats)
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
	if got := pv.Stages()[0].Instances(); len(got) != 3 || got[2] != clone || len(listed) != 2 {
		t.Error("the planned clone is not listed after the originals, or the earlier listing changed")
	}
	if next := pv.Stages()[1].(*planStage).ins; len(next) != 1 || next[0].Name() != "B_1" {
		t.Error("a planned clone wrote into the next stage's share of the slab")
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
// empty, single-sample and populated — and a capture's SnapshotView serves
// the same grid back through both.
func TestWindowTailsMatchesWindowTail(t *testing.T) {
	grid := []float64{0.5, 0.9, 0.99, 0.999, 0, 1, -1, 2}
	for _, kind := range []WindowKind{WindowExact, WindowBucketed} {
		for _, samples := range []int{0, 1, 2, 500} {
			name := fmt.Sprintf("kind=%d/samples=%d", kind, samples)
			sys := newFakeSystem(100, 8, cmp.MidLevel, "A")
			agg := NewAggregatorOptions(25*time.Second, func() time.Duration { return sys.now }, AggregatorOptions{Window: kind})
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

// ingestLatency folds one completed query with the given end-to-end latency
// and a distinct ID into the aggregator.
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
// per-query guard in internal/harness. A ranking through Identifier reads 1
// — its rows — and through a planner's view 0; an untapped PowerChief tick
// reads 0 once warm: the view, its ranking rows, its actions and the
// executor's bookkeeping are all reused or on the stack. A recorded tick
// reads 4.27: the capture, the plan's records and the identification, plus
// a clone's when one launches (22.0 before planners kept their views). Its
// ceiling sits 9 % above the reading, so a second capture, or instance lists
// rebuilt on every read instead of once per membership change, trips it.
func TestAllocationsPerControlTick(t *testing.T) {
	f := newTickFixture(t)
	id := Identifier{Metric: MetricExpectedDelay}
	if got := testing.AllocsPerRun(100, func() { sinkRanked = id.Rank(f.view, f.agg) }); got > 1 {
		t.Errorf("Rank allocates %.1f times per call, ceiling 1", got)
	}
	pv := NewPlanView(f.view)
	if got := testing.AllocsPerRun(100, func() { sinkRanked = pv.Rank(MetricExpectedDelay, f.agg) }); got > 0 {
		t.Errorf("PlanView.Rank allocates %.1f times per call, ceiling 0", got)
	}

	// The recorded tick is counted as it always was: a fresh planner's first
	// 100 ticks, its opening clones included.
	const ticks = 100
	count := func(pc *PowerChief) float64 {
		var total float64
		for i := 0; i < ticks; i++ {
			f.advance(time.Second)
			total += testing.AllocsPerRun(1, func() { pc.Adjust(f.view, f.agg) })
		}
		return total / ticks
	}
	rec := NewPowerChief(DefaultConfig())
	rec.SetTap(&lastTap{})
	if got := count(rec); got > 4.65 {
		t.Errorf("a recorded PowerChief tick allocates %.2f times, ceiling 4.65", got)
	}
	// The untapped one in steady state: after 100 ticks in which it decided
	// through its opening clones and grew its view to its largest plan.
	pc := NewPowerChief(DefaultConfig())
	for i := 0; i < ticks; i++ {
		f.advance(time.Second)
		pc.Adjust(f.view, f.agg)
	}
	if got := count(pc); got > 0 {
		t.Errorf("an untapped PowerChief tick allocates %.2f times, ceiling 0", got)
	}
}

// spyPlanner keeps the plan its planner last emitted and the statistics it
// was handed.
type spyPlanner struct {
	Planner
	plan  *ActionPlan
	stats StatsReader
}

func (s *spyPlanner) Plan(sys System, stats StatsReader) (*ActionPlan, BoostOutcome) {
	plan, out := s.Planner.Plan(sys, stats)
	s.plan, s.stats = plan, stats
	return plan, out
}

// TestTickPlansFromItsCapture: a tapped tick hands Plan the very snapshot it
// records, an untapped one the aggregator — and because the capture read the
// aggregator at the same clock, twin deployments, one tapped and one not,
// emit the same plan at every one of 300 ticks.
func TestTickPlansFromItsCapture(t *testing.T) {
	tapped, untapped := newTickFixture(t), newTickFixture(t)
	spyT := &spyPlanner{Planner: NewPowerChief(DefaultConfig())}
	spyU := &spyPlanner{Planner: NewPowerChief(DefaultConfig())}
	tap := &lastTap{}
	acted := 0
	for i := 0; i < 300; i++ {
		tapped.advance(time.Second)
		untapped.advance(time.Second)
		Tick(spyT, &Recorded{tap: tap}, tapped.view, tapped.agg)
		Tick(spyU, nil, untapped.view, untapped.agg)
		if snap, ok := spyT.stats.(*Snapshot); !ok || snap != tap.rec.Snapshot {
			t.Fatalf("tick %d: the tapped plan read %T, not the recorded capture", i, spyT.stats)
		}
		if agg, ok := spyU.stats.(*Aggregator); !ok || agg != untapped.agg {
			t.Fatalf("tick %d: the untapped plan read %T, not the aggregator", i, spyU.stats)
		}
		got, want := EncodePlan(spyT.plan), EncodePlan(spyU.plan)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: tapped plan %+v, untapped %+v", i, got, want)
		}
		if len(got) > 0 {
			acted++
		}
	}
	if acted == 0 {
		t.Fatal("no tick planned anything: the comparison proved nothing")
	}
}

// copyTap keeps every decision frame and, next to it, a deep copy taken as
// the frame arrived.
type copyTap struct{ recs, copies []DecisionRecord }

func (t *copyTap) RecordDecision(rec DecisionRecord) {
	t.recs = append(t.recs, rec)
	t.copies = append(t.copies, deepCopy(rec))
}

// deepCopy copies every slice and pointer a record holds but the physics
// tables, which are immutable and shared by design.
func deepCopy(rec DecisionRecord) DecisionRecord {
	if s := rec.Snapshot; s != nil {
		c := *s
		c.Stages = slices.Clone(s.Stages)
		for i := range c.Stages {
			c.Stages[i].Instances = slices.Clone(c.Stages[i].Instances)
		}
		c.Quarantined = slices.Clone(s.Quarantined)
		rec.Snapshot = &c
	}
	rec.Plan, rec.Withdraw = slices.Clone(rec.Plan), slices.Clone(rec.Withdraw)
	if rec.Identified != nil {
		id := *rec.Identified
		rec.Identified = &id
	}
	if rec.Failure != nil {
		f := *rec.Failure
		rec.Failure = &f
	}
	return rec
}

// TestRecordsOutliveTheirTick: each core planner keeps one view and reuses
// its memory every tick, and the recorder keeps every frame — so a frame
// that pointed into a planner's scratch memory would change under a later
// tick. Over 300 recorded ticks, every frame still equals the deep copy
// taken when it was recorded.
func TestRecordsOutliveTheirTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WithdrawInterval = 30 * time.Second
	for _, mk := range []func() Policy{
		func() Policy { return NewPowerChief(cfg) },
		func() Policy { return NewFreqBoost(cfg) },
		func() Policy { return NewInstBoost(cfg) },
		func() Policy { return NewPegasus(20 * time.Second) },
		func() Policy { return NewPowerChiefSaver(20*time.Second, cfg) },
	} {
		p := mk()
		t.Run(p.Name(), func(t *testing.T) {
			f := newTickFixture(t)
			tap := &copyTap{}
			p.(TapSetter).SetTap(tap)
			for i := 0; i < 300; i++ {
				f.advance(time.Second)
				p.Adjust(f.view, f.agg)
			}
			if len(tap.recs) != 300 {
				t.Fatalf("recorded %d frames, want 300", len(tap.recs))
			}
			acted := 0
			for k := range tap.recs {
				if !reflect.DeepEqual(tap.recs[k], tap.copies[k]) {
					t.Fatalf("frame %d changed after it was recorded:\n%+v\nwas\n%+v", k, tap.recs[k], tap.copies[k])
				}
				if len(tap.recs[k].Plan) > 0 {
					acted++
				}
			}
			if acted == 0 {
				t.Fatal("no tick planned anything: the comparison proved nothing")
			}
		})
	}
}

// TestCaptureGoldenBytes: captures of the ledger's deployment — before any
// tick, and the 20th recorded PowerChief frame, which holds clones — encode
// to the pinned bytes (recorded while each capture still held its own copy
// of the physics tables), and two captures of one deployment share the
// tables.
func TestCaptureGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "capture_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	f := newTickFixture(t)
	first := CaptureSnapshot(f.view, f.agg)
	pc := NewPowerChief(DefaultConfig())
	tap := &lastTap{}
	pc.SetTap(tap)
	for i := 0; i < 20; i++ {
		f.advance(time.Second)
		pc.Adjust(f.view, f.agg)
	}
	var got []byte
	for _, snap := range []*Snapshot{first, tap.rec.Snapshot} {
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		got = append(append(got, b...), '\n')
	}
	if !bytes.Equal(got, want) {
		t.Errorf("capture bytes drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	last := tap.rec.Snapshot
	if first.Power != last.Power {
		t.Error("two captures of one deployment hold different power tables")
	}
	for i := range first.Stages {
		if first.Stages[i].Profile != last.Stages[i].Profile {
			t.Errorf("stage %s: two captures hold different profile tables", first.Stages[i].Name)
		}
	}
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
			out, res := Tick(spy, &Recorded{log: log, tap: tap}, sys, agg)

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
