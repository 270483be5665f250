package stage

import (
	"errors"
	"math"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
)

// cpuBound is a profile with speedup linear in frequency.
var cpuBound = cmp.NewRooflineProfile(0)

// flat gains nothing from DVFS, making serve times frequency-independent —
// convenient for timing arithmetic in tests.
var flat = cmp.NewRooflineProfile(1)

func newSys(t *testing.T, specs ...Spec) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 200)
	sys, err := NewSystem(eng, chip, specs)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys
}

func oneStage(name string, n int, p cmp.SpeedupProfile) Spec {
	return Spec{Name: name, Kind: Pipeline, Profile: p, Instances: n, Level: cmp.MidLevel}
}

// submitAt schedules a query carrying the given per-stage work at time at.
func submitAt(eng *sim.Engine, sys *System, id query.ID, at time.Duration, work ...time.Duration) *query.Query {
	w := make([][]time.Duration, len(work))
	for i, d := range work {
		w[i] = []time.Duration{d}
	}
	q := query.New(id, at, w)
	eng.ScheduleAt(at, func() { sys.Submit(q) })
	return q
}

func TestSinglePipelineQueryTiming(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat), oneStage("B", 1, flat))
	q := submitAt(eng, sys, 1, time.Second, 100*time.Millisecond, 50*time.Millisecond)
	eng.Run()
	if !q.Completed() {
		t.Fatal("query did not complete")
	}
	if q.Latency() != 150*time.Millisecond {
		t.Errorf("Latency = %v, want 150ms", q.Latency())
	}
	if len(q.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(q.Records))
	}
	for _, r := range q.Records {
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
		if r.Queuing() != 0 {
			t.Errorf("unloaded system produced queuing %v at %s", r.Queuing(), r.Instance)
		}
	}
	if q.Records[0].Stage != "A" || q.Records[1].Stage != "B" {
		t.Error("records out of pipeline order")
	}
	if q.Records[0].Serving() != 100*time.Millisecond {
		t.Errorf("stage A serving = %v", q.Records[0].Serving())
	}
}

func TestServeTimeScalesWithFrequency(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, cpuBound))
	in := sys.Stage("A").Instances()[0]
	if err := in.SetLevel(cmp.MaxLevel); err != nil {
		t.Fatal(err)
	}
	// CPU-bound at 2.4 GHz: exec ratio = 1.2/2.4 = 0.5.
	q := submitAt(eng, sys, 1, time.Second, 100*time.Millisecond)
	eng.Run()
	if q.Latency() != 50*time.Millisecond {
		t.Errorf("Latency at max freq = %v, want 50ms", q.Latency())
	}
}

func TestQueuingDelayMeasured(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat))
	q1 := submitAt(eng, sys, 1, time.Second, 100*time.Millisecond)
	q2 := submitAt(eng, sys, 2, time.Second, 100*time.Millisecond)
	eng.Run()
	if q1.Records[0].Queuing() != 0 {
		t.Errorf("first query queuing = %v", q1.Records[0].Queuing())
	}
	if q2.Records[0].Queuing() != 100*time.Millisecond {
		t.Errorf("second query queuing = %v, want 100ms", q2.Records[0].Queuing())
	}
	if q2.Latency() != 200*time.Millisecond {
		t.Errorf("second query latency = %v, want 200ms", q2.Latency())
	}
}

func TestJoinShortestQueueBalances(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat))
	for i := 0; i < 10; i++ {
		submitAt(eng, sys, query.ID(i), time.Second, 100*time.Millisecond)
	}
	eng.Run()
	ins := sys.Stage("A").Instances()
	if ins[0].Served() != 5 || ins[1].Served() != 5 {
		t.Errorf("JSQ served %d/%d, want 5/5", ins[0].Served(), ins[1].Served())
	}
}

func TestRoundRobinDispatcher(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 3, flat))
	sys.Stage("A").SetDispatcher(&RoundRobin{})
	for i := 0; i < 9; i++ {
		submitAt(eng, sys, query.ID(i), time.Second, 10*time.Millisecond)
	}
	eng.Run()
	for _, in := range sys.Stage("A").Instances() {
		if in.Served() != 3 {
			t.Errorf("%s served %d, want 3", in.Name(), in.Served())
		}
	}
}

func TestLeastExpectedDelayPrefersFastCore(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, cpuBound))
	st := sys.Stage("A")
	st.SetDispatcher(LeastExpectedDelay{})
	fast, slow := st.Instances()[0], st.Instances()[1]
	if err := fast.SetLevel(cmp.MaxLevel); err != nil {
		t.Fatal(err)
	}
	if err := slow.SetLevel(0); err != nil {
		t.Fatal(err)
	}
	// Same backlog: the fast instance wins even though queue lengths tie.
	for i := 0; i < 2; i++ {
		submitAt(eng, sys, query.ID(i), time.Second, 100*time.Millisecond)
	}
	eng.RunUntil(time.Second)
	// Both got one query? No: LED sends the first to fast (score (0+1)*0.5)
	// then the second again to fast ((1+1)*0.5 = 1.0 = slow's (0+1)*1.0 tie
	// → first in slice order wins, which is fast).
	if fast.QueueLen() != 2 || slow.QueueLen() != 0 {
		t.Errorf("backlogs fast=%d slow=%d, want 2/0", fast.QueueLen(), slow.QueueLen())
	}
	eng.Run()
}

func TestFanOutJoinsOnSlowestBranch(t *testing.T) {
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 200)
	sys, err := NewSystem(eng, chip, []Spec{
		{Name: "leaf", Kind: FanOut, Profile: flat, Instances: 3, Level: cmp.MidLevel},
		{Name: "agg", Kind: Pipeline, Profile: flat, Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New(1, time.Second, [][]time.Duration{
		{10 * time.Millisecond, 70 * time.Millisecond, 30 * time.Millisecond},
		{5 * time.Millisecond},
	})
	eng.ScheduleAt(time.Second, func() { sys.Submit(q) })
	eng.Run()
	if !q.Completed() {
		t.Fatal("fan-out query did not complete")
	}
	// Join on the slowest branch (70ms) plus aggregation (5ms).
	if q.Latency() != 75*time.Millisecond {
		t.Errorf("Latency = %v, want 75ms", q.Latency())
	}
	// One record per branch plus the aggregator.
	if len(q.Records) != 4 {
		t.Errorf("records = %d, want 4", len(q.Records))
	}
}

func TestFanOutRejectsCloneAndWithdraw(t *testing.T) {
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 200)
	sys, err := NewSystem(eng, chip, []Spec{
		{Name: "leaf", Kind: FanOut, Profile: flat, Instances: 2, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stage("leaf")
	in := st.Instances()[0]
	if _, err := st.Clone(in); err == nil {
		t.Error("clone of fan-out instance accepted")
	}
	if err := st.Withdraw(in, nil); err == nil {
		t.Error("withdraw of fan-out instance accepted")
	}
	if _, err := st.Launch(cmp.MidLevel); err == nil {
		t.Error("runtime launch into fan-out stage accepted")
	}
	_ = eng
}

func TestDVFSMidServiceRescales(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, cpuBound))
	in := sys.Stage("A").Instances()[0]
	// At 1.8 GHz the exec ratio is 1.2/1.8 = 2/3: a 300ms demand takes 200ms.
	q := submitAt(eng, sys, 1, 0, 300*time.Millisecond)
	// Halfway through (100ms in, 100ms left), boost to 2.4 GHz
	// (ratio 0.5): remaining shrinks by 0.5/(2/3) = 0.75 → 75ms.
	eng.ScheduleAt(100*time.Millisecond, func() {
		if err := in.SetLevel(cmp.MaxLevel); err != nil {
			t.Errorf("SetLevel: %v", err)
		}
	})
	eng.Run()
	want := 175 * time.Millisecond
	if got := q.Latency(); got != want {
		t.Errorf("Latency = %v, want %v", got, want)
	}
}

func TestDVFSMidServiceSlowdown(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, cpuBound))
	in := sys.Stage("A").Instances()[0]
	q := submitAt(eng, sys, 1, 0, 300*time.Millisecond) // 200ms at 1.8GHz
	// At 100ms, drop to 1.2 GHz: remaining 100ms scales by 1/(2/3) = 1.5.
	eng.ScheduleAt(100*time.Millisecond, func() {
		if err := in.SetLevel(0); err != nil {
			t.Errorf("SetLevel: %v", err)
		}
	})
	eng.Run()
	if got := q.Latency(); got != 250*time.Millisecond {
		t.Errorf("Latency = %v, want 250ms", got)
	}
}

func TestSetLevelSameIsNoop(t *testing.T) {
	_, sys := newSys(t, oneStage("A", 1, flat))
	in := sys.Stage("A").Instances()[0]
	if err := in.SetLevel(in.Level()); err != nil {
		t.Fatal(err)
	}
}

func TestSetLevelBudgetDenied(t *testing.T) {
	eng := sim.NewEngine()
	m := cmp.DefaultModel()
	chip := cmp.NewChip(16, m, m.Power(cmp.MidLevel)) // exactly one mid core
	sys, err := NewSystem(eng, chip, []Spec{oneStage("A", 1, flat)})
	if err != nil {
		t.Fatal(err)
	}
	in := sys.Stage("A").Instances()[0]
	if err := in.SetLevel(cmp.MaxLevel); !errors.Is(err, cmp.ErrBudgetExceeded) {
		t.Errorf("raise beyond budget error = %v", err)
	}
	if in.Level() != cmp.MidLevel {
		t.Error("failed raise changed the instance level")
	}
}

func TestCloneStealsHalfTheQueue(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat))
	st := sys.Stage("A")
	src := st.Instances()[0]
	for i := 0; i < 9; i++ {
		submitAt(eng, sys, query.ID(i), time.Second, 100*time.Millisecond)
	}
	eng.RunUntil(time.Second) // all 9 queued: 1 serving + 8 waiting
	if src.QueueLen() != 9 {
		t.Fatalf("backlog = %d, want 9", src.QueueLen())
	}
	clone, err := st.Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	// 8 waiting → 4 stolen. Clone starts serving immediately: backlog 4.
	if src.QueueLen() != 5 {
		t.Errorf("src backlog after clone = %d, want 5", src.QueueLen())
	}
	if clone.QueueLen() != 4 {
		t.Errorf("clone backlog = %d, want 4", clone.QueueLen())
	}
	if clone.Level() != src.Level() {
		t.Error("clone did not inherit the source frequency")
	}
	eng.Run()
	if got := src.Served() + clone.Served(); got != 9 {
		t.Errorf("total served = %d, want 9", got)
	}
	// Stolen queries keep their original enqueue time: their measured
	// queuing must reflect waiting since t=1s, not since the steal.
	if sys.Completed() != 9 {
		t.Errorf("completed = %d", sys.Completed())
	}
}

func TestCloneValidation(t *testing.T) {
	_, sys := newSys(t, oneStage("A", 1, flat), oneStage("B", 1, flat))
	a, b := sys.Stage("A"), sys.Stage("B")
	if _, err := a.Clone(b.Instances()[0]); err == nil {
		t.Error("cross-stage clone accepted")
	}
}

func TestWithdrawIdleInstance(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat))
	st := sys.Stage("A")
	in := st.Instances()[1]
	drawBefore := sys.Chip().Draw()
	if err := st.Withdraw(in, nil); err != nil {
		t.Fatal(err)
	}
	if !in.Retired() {
		t.Error("idle instance not retired immediately")
	}
	if len(st.Instances()) != 1 {
		t.Errorf("stage has %d instances, want 1", len(st.Instances()))
	}
	if sys.Chip().Draw() >= drawBefore {
		t.Error("withdraw did not return power")
	}
	_ = eng
}

func TestWithdrawBusyInstanceDrains(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat))
	st := sys.Stage("A")
	sys.Stage("A").SetDispatcher(&RoundRobin{})
	q1 := submitAt(eng, sys, 1, time.Second, 100*time.Millisecond)
	q2 := submitAt(eng, sys, 2, time.Second, 100*time.Millisecond)
	q3 := submitAt(eng, sys, 3, time.Second, 100*time.Millisecond) // queued on instance 1
	eng.RunUntil(time.Second)
	victim := st.Instances()[0]
	survivor := st.Instances()[1]
	if victim.QueueLen() != 2 {
		t.Fatalf("victim backlog = %d, want 2 (serving+queued)", victim.QueueLen())
	}
	if err := st.Withdraw(victim, survivor); err != nil {
		t.Fatal(err)
	}
	if victim.Retired() {
		t.Error("busy instance retired before draining")
	}
	if !victim.Draining() {
		t.Error("victim not marked draining")
	}
	// The queued query moved to the survivor; victim finishes its in-flight
	// query then retires.
	eng.Run()
	if !victim.Retired() {
		t.Error("victim did not retire after drain")
	}
	for _, q := range []*query.Query{q1, q2, q3} {
		if !q.Completed() {
			t.Errorf("query %d lost during withdraw", q.ID)
		}
	}
	if len(st.Instances()) != 1 {
		t.Errorf("stage has %d instances, want 1", len(st.Instances()))
	}
}

func TestWithdrawLastInstanceRefused(t *testing.T) {
	_, sys := newSys(t, oneStage("A", 1, flat))
	st := sys.Stage("A")
	if err := st.Withdraw(st.Instances()[0], nil); err == nil {
		t.Fatal("withdraw of last active instance accepted")
	}
}

func TestWithdrawTwiceRefused(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 3, flat))
	st := sys.Stage("A")
	// Keep the victim busy so it stays in draining state.
	submitAt(eng, sys, 1, time.Second, time.Hour)
	eng.RunUntil(time.Second)
	var victim *Instance
	for _, in := range st.Instances() {
		if in.QueueLen() > 0 {
			victim = in
		}
	}
	if err := st.Withdraw(victim, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Withdraw(victim, nil); err == nil {
		t.Fatal("double withdraw accepted")
	}
}

func TestDrainingInstanceExcludedFromDispatch(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat))
	st := sys.Stage("A")
	// Busy both, then withdraw one and submit more load.
	submitAt(eng, sys, 1, time.Second, 300*time.Millisecond)
	submitAt(eng, sys, 2, time.Second, 300*time.Millisecond)
	eng.RunUntil(time.Second)
	victim := st.Instances()[0]
	if err := st.Withdraw(victim, nil); err != nil {
		t.Fatal(err)
	}
	servedBefore := victim.Served()
	for i := 10; i < 16; i++ {
		submitAt(eng, sys, query.ID(i), 1100*time.Millisecond, 10*time.Millisecond)
	}
	eng.Run()
	// The draining victim finishes only its in-flight query.
	if victim.Served() != servedBefore+1 {
		t.Errorf("draining instance served %d new queries", victim.Served()-servedBefore-1)
	}
}

func TestUtilizationTracking(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat))
	in := sys.Stage("A").Instances()[0]
	submitAt(eng, sys, 1, 0, 30*time.Millisecond)
	eng.RunUntil(100 * time.Millisecond)
	// Busy 30ms of 100ms.
	if u := in.Utilization(); math.Abs(u-0.3) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.3", u)
	}
	in.ResetUtilizationEpoch()
	eng.RunUntil(200 * time.Millisecond)
	if u := in.Utilization(); u != 0 {
		t.Errorf("Utilization after epoch reset = %v, want 0", u)
	}
}

func TestSystemCounters(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat))
	var completions int
	sys.OnComplete(func(q *query.Query) { completions++ })
	for i := 0; i < 5; i++ {
		submitAt(eng, sys, query.ID(i), time.Second, 10*time.Millisecond)
	}
	eng.RunUntil(time.Second + 25*time.Millisecond)
	if sys.Submitted() != 5 {
		t.Errorf("Submitted = %d", sys.Submitted())
	}
	if sys.Completed() != 2 {
		t.Errorf("Completed = %d, want 2 at t=1.025s", sys.Completed())
	}
	if sys.InFlight() != 3 {
		t.Errorf("InFlight = %d, want 3", sys.InFlight())
	}
	eng.Run()
	if completions != 5 || !sys.Drain() {
		t.Errorf("completions = %d, drained = %v", completions, sys.Drain())
	}
}

// TestRecordsCarryInstanceSlots: every instance takes its own slot at launch,
// clones included, each record carries its instance's, and Emitted tallies
// exactly the records the completion callbacks were handed.
func TestRecordsCarryInstanceSlots(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat), oneStage("B", 1, flat))
	bySlot := map[uint32]string{}
	for _, st := range sys.Stages() {
		for _, in := range st.Instances() {
			bySlot[in.slot] = in.name
		}
	}
	a := sys.Stage("A")
	clone, err := a.Clone(a.Instances()[0])
	if err != nil {
		t.Fatal(err)
	}
	bySlot[clone.slot] = clone.name
	if len(bySlot) != 4 || bySlot[0] != "" || clone.slot != 4 {
		t.Fatalf("slots %v, clone %d: want 1..4, one per instance", bySlot, clone.slot)
	}
	var handed query.Tally
	sys.OnComplete(func(q *query.Query) {
		for _, r := range q.Records {
			if bySlot[r.Slot] != r.Instance {
				t.Errorf("record of %s carries slot %d (%s)", r.Instance, r.Slot, bySlot[r.Slot])
			}
			handed.Add(r.Queuing(), r.Serving())
		}
	})
	for i := 0; i < 12; i++ {
		submitAt(eng, sys, query.ID(i), time.Second, 10*time.Millisecond, 7*time.Millisecond)
	}
	eng.Run()
	if got := sys.Emitted(); got != handed || got.Records != 24 || got.Queuing == 0 {
		t.Errorf("Emitted = %v, handed to the callbacks %v", got, handed)
	}
}

func TestNewSystemValidation(t *testing.T) {
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 200)
	if _, err := NewSystem(eng, chip, nil); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := NewSystem(eng, chip, []Spec{oneStage("A", 1, flat), oneStage("A", 1, flat)}); err == nil {
		t.Error("duplicate stage names accepted")
	}
	if _, err := NewSystem(eng, chip, []Spec{oneStage("", 1, flat)}); err == nil {
		t.Error("unnamed stage accepted")
	}
	if _, err := NewSystem(eng, chip, []Spec{oneStage("A", 0, flat)}); err == nil {
		t.Error("zero-instance stage accepted")
	}
	if _, err := NewSystem(eng, chip, []Spec{{Name: "A", Instances: 1, Level: cmp.MidLevel}}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := NewSystem(eng, chip, []Spec{{Name: "A", Profile: flat, Instances: 1, Level: cmp.Level(99)}}); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestNewSystemBudgetTooSmall(t *testing.T) {
	eng := sim.NewEngine()
	m := cmp.DefaultModel()
	chip := cmp.NewChip(16, m, m.Power(cmp.MidLevel)*2) // fits 2 mid cores
	_, err := NewSystem(eng, chip, []Spec{oneStage("A", 3, flat)})
	if !errors.Is(err, cmp.ErrBudgetExceeded) {
		t.Errorf("error = %v, want ErrBudgetExceeded", err)
	}
}

func TestSubmitWorkShapeMismatchPanics(t *testing.T) {
	_, sys := newSys(t, oneStage("A", 1, flat), oneStage("B", 1, flat))
	defer func() {
		if recover() == nil {
			t.Fatal("work shape mismatch did not panic")
		}
	}()
	sys.Submit(query.New(1, 0, [][]time.Duration{{time.Millisecond}}))
}

func TestWorkForShapesMatrix(t *testing.T) {
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 200)
	sys, err := NewSystem(eng, chip, []Spec{
		{Name: "leaf", Kind: FanOut, Profile: flat, Instances: 4, Level: cmp.MidLevel},
		{Name: "agg", Kind: Pipeline, Profile: flat, Instances: 2, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := sys.WorkFor(func(s, b int) time.Duration { return time.Duration(s*10+b) * time.Millisecond })
	if len(w) != 2 || len(w[0]) != 4 || len(w[1]) != 1 {
		t.Fatalf("work shape = %dx(%d,%d)", len(w), len(w[0]), len(w[1]))
	}
	if w[0][3] != 3*time.Millisecond || w[1][0] != 10*time.Millisecond {
		t.Error("draw function results misplaced")
	}
}

func TestTotalInstances(t *testing.T) {
	_, sys := newSys(t, oneStage("A", 2, flat), oneStage("B", 3, flat))
	if got := sys.TotalInstances(); got != 5 {
		t.Errorf("TotalInstances = %d, want 5", got)
	}
}

func TestInstanceAccessors(t *testing.T) {
	_, sys := newSys(t, oneStage("A", 1, flat))
	in := sys.Stage("A").Instances()[0]
	if in.Name() != "A_1" {
		t.Errorf("Name = %q, want A_1", in.Name())
	}
	if in.Stage().Name() != "A" {
		t.Error("Stage() wrong")
	}
	if in.Power() != cmp.DefaultModel().Power(cmp.MidLevel) {
		t.Error("Power() mismatch")
	}
	if in.Level() != cmp.MidLevel {
		t.Error("Level() mismatch")
	}
}
