package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
)

func TestConstantSource(t *testing.T) {
	c := Constant(5)
	if c.RateAt(time.Hour) != 5 || c.MaxRate() != 5 {
		t.Error("constant source wrong")
	}
}

func TestTraceRateAt(t *testing.T) {
	tr, err := NewTrace(
		Phase{Until: 10 * time.Second, Rate: 1},
		Phase{Until: 20 * time.Second, Rate: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},
		{9 * time.Second, 1},
		{10 * time.Second, 3}, // boundary belongs to the next phase
		{19 * time.Second, 3},
		{25 * time.Second, 3}, // final rate persists
	}
	for _, c := range cases {
		if got := tr.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if tr.MaxRate() != 3 {
		t.Errorf("MaxRate = %v", tr.MaxRate())
	}
}

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace(); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTrace(Phase{Until: time.Second, Rate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewTrace(
		Phase{Until: 2 * time.Second, Rate: 1},
		Phase{Until: time.Second, Rate: 1},
	); err == nil {
		t.Error("non-increasing phase boundary accepted")
	}
}

func TestScaledSource(t *testing.T) {
	s := Scaled{Base: Constant(4), Factor: 0.5}
	if s.RateAt(0) != 2 || s.MaxRate() != 2 {
		t.Error("scaled source wrong")
	}
}

func TestLevelNamesAndUtilization(t *testing.T) {
	for _, c := range []struct {
		l    Level
		name string
	}{{Low, "low"}, {Medium, "medium"}, {High, "high"}} {
		if c.l.String() != c.name {
			t.Errorf("String(%d) = %q", c.l, c.l.String())
		}
		got, err := ParseLevel(c.name)
		if err != nil || got != c.l {
			t.Errorf("ParseLevel(%q) = %v, %v", c.name, got, err)
		}
	}
	if _, err := ParseLevel("extreme"); err == nil {
		t.Error("unknown level accepted")
	}
	if !(Low.Utilization() < Medium.Utilization() && Medium.Utilization() < High.Utilization()) {
		t.Error("utilizations not ordered")
	}
	if High.Utilization() <= 1 {
		t.Error("high load should transiently exceed baseline capacity")
	}
}

func TestRateForUtilization(t *testing.T) {
	if got := RateForUtilization(10, 0.5); got != 5 {
		t.Errorf("RateForUtilization = %v", got)
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %v accepted", bad)
				}
			}()
			RateForUtilization(bad, 0.5)
		}()
	}
}

func buildSystem(t *testing.T) (*sim.Engine, *stage.System, app.App) {
	t.Helper()
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 200)
	a := app.Sirius()
	specs, err := a.Specs(nil, cmp.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := stage.NewSystem(eng, chip, specs)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys, a
}

func TestGeneratorPoissonRate(t *testing.T) {
	eng, sys, a := buildSystem(t)
	rng := rand.New(rand.NewSource(1))
	horizon := 2000 * time.Second
	rate := 2.0
	gen := NewGenerator(eng, sys, Constant(rate), func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, []int{1, 1, 1})
	}, rng, horizon)
	gen.Start()
	eng.RunUntil(horizon)
	got := float64(gen.Issued()) / horizon.Seconds()
	if math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("empirical rate %.3f qps, want ≈%v", got, rate)
	}
	if sys.Submitted() != gen.Issued() {
		t.Errorf("system received %d, generator issued %d", sys.Submitted(), gen.Issued())
	}
}

func TestGeneratorThinningMatchesTrace(t *testing.T) {
	eng, sys, a := buildSystem(t)
	rng := rand.New(rand.NewSource(2))
	tr, err := NewTrace(
		Phase{Until: 500 * time.Second, Rate: 1},
		Phase{Until: 1000 * time.Second, Rate: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	var first, second int
	sys.OnComplete(func(q *query.Query) {})
	gen := NewGenerator(eng, sys, tr, func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, []int{1, 1, 1})
	}, rng, 1000*time.Second)
	gen.Start()
	// Count arrivals per phase via a probe event at the boundary.
	eng.ScheduleAt(500*time.Second, func() { first = int(gen.Issued()) })
	eng.RunUntil(1000 * time.Second)
	second = int(gen.Issued()) - first
	r1 := float64(first) / 500
	r2 := float64(second) / 500
	if math.Abs(r1-1) > 0.15 {
		t.Errorf("phase 1 rate = %.3f, want ≈1", r1)
	}
	if math.Abs(r2-4) > 0.4 {
		t.Errorf("phase 2 rate = %.3f, want ≈4", r2)
	}
}

func TestGeneratorStopsAtHorizon(t *testing.T) {
	eng, sys, a := buildSystem(t)
	rng := rand.New(rand.NewSource(3))
	gen := NewGenerator(eng, sys, Constant(10), func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, []int{1, 1, 1})
	}, rng, 10*time.Second)
	gen.Start()
	eng.Run() // exhaust all events: generation must terminate
	if got := gen.Issued(); got == 0 || got > 200 {
		t.Errorf("issued %d queries for a 10s horizon at 10qps", got)
	}
}

func TestGeneratorZeroRateIdles(t *testing.T) {
	eng, sys, a := buildSystem(t)
	rng := rand.New(rand.NewSource(4))
	gen := NewGenerator(eng, sys, Constant(0), func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, []int{1, 1, 1})
	}, rng, 10*time.Second)
	gen.Start()
	eng.Run()
	if gen.Issued() != 0 {
		t.Errorf("zero-rate source issued %d queries", gen.Issued())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() uint64 {
		eng, sys, a := buildSystem(t)
		rng := rand.New(rand.NewSource(99))
		gen := NewGenerator(eng, sys, Constant(3), func(r *rand.Rand) [][]time.Duration {
			return a.DrawWork(r, []int{1, 1, 1})
		}, rng, 300*time.Second)
		gen.Start()
		eng.Run()
		return gen.Issued()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed issued %d vs %d queries", a, b)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	eng, sys, a := buildSystem(t)
	rng := rand.New(rand.NewSource(1))
	draw := func(r *rand.Rand) [][]time.Duration { return a.DrawWork(r, []int{1, 1, 1}) }
	for name, fn := range map[string]func(){
		"nil engine":   func() { NewGenerator(nil, sys, Constant(1), draw, rng, time.Second) },
		"nil source":   func() { NewGenerator(eng, sys, nil, draw, rng, time.Second) },
		"zero horizon": func() { NewGenerator(eng, sys, Constant(1), draw, rng, 0) },
		"nil drawer":   func() { NewGenerator(eng, sys, Constant(1), nil, rng, time.Second) },
		"nil refiller": func() { NewRefillingGenerator(eng, sys, Constant(1), nil, rng, time.Second) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFigure11TraceShape(t *testing.T) {
	tr := Figure11Trace(2)
	// Dip between 175s and 275s is the lowest rate.
	dip := tr.RateAt(200 * time.Second)
	for _, at := range []time.Duration{10 * time.Second, 100 * time.Second, 300 * time.Second, 700 * time.Second} {
		if tr.RateAt(at) <= dip {
			t.Errorf("rate at %v (%.2f) not above the dip (%.2f)", at, tr.RateAt(at), dip)
		}
	}
	if tr.MaxRate() <= 2 {
		t.Error("trace should exceed the base rate at peak")
	}
}

func TestGeneratorPauseWithArmedArrivalThenResume(t *testing.T) {
	eng, sys, a := buildSystem(t)
	rng := rand.New(rand.NewSource(5))
	gen := NewGenerator(eng, sys, Constant(10), func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, []int{1, 1, 1})
	}, rng, 300*time.Second)
	gen.Start()
	eng.RunUntil(100 * time.Second)
	issued := gen.Issued()
	if issued == 0 || eng.Pending() == 0 {
		t.Fatalf("issued %d with %d events pending at 100s, want a running arrival process", issued, eng.Pending())
	}

	// The next candidate arrival is armed; Pause takes exactly that event
	// off the engine, a second Pause finds nothing to take.
	before := eng.Pending()
	gen.Pause()
	if eng.Pending() != before-1 {
		t.Fatalf("Pause removed %d events, want 1", before-eng.Pending())
	}
	gen.Pause()
	if eng.Pending() != before-1 {
		t.Fatal("second Pause removed another event")
	}
	eng.RunUntil(200 * time.Second)
	if gen.Issued() != issued {
		t.Fatalf("paused generator issued %d queries", gen.Issued()-issued)
	}

	// Resume re-arms the same event from the current instant; a second
	// Resume must not arm it twice.
	before = eng.Pending()
	gen.Resume()
	gen.Resume()
	if eng.Pending() != before+1 {
		t.Fatalf("Resume armed %d events, want 1", eng.Pending()-before)
	}
	eng.Run()
	resumed := float64(gen.Issued() - issued)
	if want := 10.0 * 100; math.Abs(resumed-want)/want > 0.15 {
		t.Errorf("issued %.0f queries over the resumed 100s at 10 qps, want ≈%.0f", resumed, want)
	}
	if sys.Submitted() != gen.Issued() {
		t.Errorf("system received %d, generator issued %d", sys.Submitted(), gen.Issued())
	}
}

// completionLog registers a callback that checks every completed query of a
// generator-driven Sirius system — completed once, three records in stage
// order, all its own — and logs what the run looked like from outside.
// storage and matrices count completions per *Query and per work array; the
// test keeps those pointers for identity only.
type completionLog struct {
	seen     map[query.ID]bool
	timeline []time.Duration // arrival, done per completion, in order
	storage  map[*query.Query]int
	matrices map[*time.Duration]int
}

func logCompletions(t *testing.T, sys *stage.System) *completionLog {
	l := &completionLog{seen: make(map[query.ID]bool), storage: make(map[*query.Query]int), matrices: make(map[*time.Duration]int)}
	sys.OnComplete(func(q *query.Query) {
		if l.seen[q.ID] {
			t.Errorf("query %d completed twice", q.ID)
		}
		l.seen[q.ID] = true
		l.timeline = append(l.timeline, q.Arrival, q.Done)
		l.storage[q]++
		l.matrices[&q.Work[0][0]]++
		if len(q.Records) != 3 {
			t.Fatalf("query %d carries %d records, want 3", q.ID, len(q.Records))
		}
		for i, name := range []string{"ASR", "IMM", "QA"} {
			if r := q.Records[i]; r.Query != q.ID || r.Stage != name || r.QueueEnter < q.Arrival || r.Validate() != nil {
				t.Errorf("query %d (arrived %v) record %d: %+v", q.ID, q.Arrival, i, r)
			}
		}
	})
	return l
}

// TestGeneratorRecyclesCompletedQueries: an arrival takes the storage of the
// most recently completed query, so a run allocates as many queries as it
// ever had in flight at once — with the refilling drawer their work matrices
// too, with a legacy drawer a fresh matrix per arrival — and the two drawers
// simulate the same run.
func TestGeneratorRecyclesCompletedQueries(t *testing.T) {
	run := func(refill bool) (*completionLog, uint64, int) {
		eng, sys, a := buildSystem(t)
		l := logCompletions(t, sys)
		peak := 0
		arriving := func() {
			if n := int(sys.InFlight()) + 1; n > peak {
				peak = n
			}
		}
		rng := rand.New(rand.NewSource(6))
		var gen *Generator
		if refill {
			gen = NewRefillingGenerator(eng, sys, Constant(1.2), func(into [][]time.Duration, r *rand.Rand) [][]time.Duration {
				arriving()
				return a.DrawWorkInto(into, r, []int{1, 1, 1})
			}, rng, 300*time.Second)
		} else {
			gen = NewGenerator(eng, sys, Constant(1.2), func(r *rand.Rand) [][]time.Duration {
				arriving()
				return a.DrawWork(r, []int{1, 1, 1})
			}, rng, 300*time.Second)
		}
		gen.Start()
		eng.Run()
		if sys.Completed() != gen.Issued() || gen.Issued() < 200 {
			t.Fatalf("%d of %d queries completed", sys.Completed(), gen.Issued())
		}
		return l, gen.Issued(), peak
	}

	refilled, issued, peak := run(true)
	if peak < 2 || peak > int(issued)/10 {
		t.Fatalf("peak of %d in flight over %d queries: the run does not exercise reuse", peak, issued)
	}
	if len(refilled.storage) != peak {
		t.Errorf("%d queries allocated for a peak of %d in flight", len(refilled.storage), peak)
	}
	if len(refilled.matrices) != peak {
		t.Errorf("refilling drawer: %d work matrices allocated for a peak of %d in flight", len(refilled.matrices), peak)
	}

	legacy, legacyIssued, legacyPeak := run(false)
	if len(legacy.storage) != legacyPeak {
		t.Errorf("legacy drawer: %d queries allocated for a peak of %d in flight", len(legacy.storage), legacyPeak)
	}
	if len(legacy.matrices) != int(legacyIssued) {
		t.Errorf("legacy drawer: %d work matrices for %d queries, want one each", len(legacy.matrices), legacyIssued)
	}
	if legacyIssued != issued || len(legacy.timeline) != len(refilled.timeline) {
		t.Fatalf("legacy drawer issued %d queries, refilling %d", legacyIssued, issued)
	}
	for i := range legacy.timeline {
		if legacy.timeline[i] != refilled.timeline[i] {
			t.Fatalf("the drawers diverge at completion %d: %v vs %v", i/2, legacy.timeline[i], refilled.timeline[i])
		}
	}
}

// TestPauseLeavesInFlightQueriesAlone: pausing a generator (a tenant's
// eviction) stops arrivals only. The queries it already submitted stay out
// of its pool until each completes, and after Resume the arrivals go on
// recycling the same storage.
func TestPauseLeavesInFlightQueriesAlone(t *testing.T) {
	eng, sys, a := buildSystem(t)
	l := logCompletions(t, sys)
	peak := 0
	gen := NewRefillingGenerator(eng, sys, Constant(4), func(into [][]time.Duration, r *rand.Rand) [][]time.Duration {
		if n := int(sys.InFlight()) + 1; n > peak {
			peak = n
		}
		return a.DrawWorkInto(into, r, []int{1, 1, 1})
	}, rand.New(rand.NewSource(8)), 100*time.Second)
	gen.Start()
	eng.RunUntil(10 * time.Second)
	gen.Pause()
	inFlight, completed := sys.InFlight(), sys.Completed()
	if inFlight < 5 {
		t.Fatalf("%d queries in flight at the pause, want a standing backlog", inFlight)
	}
	eng.Run() // nothing arrives: the engine runs dry once the backlog is served
	if !sys.Drain() || sys.Completed() != completed+inFlight {
		t.Fatalf("%d of the %d queries in flight at the pause completed", sys.Completed()-completed, inFlight)
	}
	if eng.Now() >= 100*time.Second {
		t.Fatalf("the backlog took until %v to drain; nothing left of the horizon to resume into", eng.Now())
	}
	gen.Resume()
	eng.Run()
	if sys.Completed() != gen.Issued() || gen.Issued() < 2*(completed+inFlight) {
		t.Fatalf("%d of %d queries completed, %d of them before the resume", sys.Completed(), gen.Issued(), completed+inFlight)
	}
	if len(l.storage) != peak || len(l.matrices) != peak {
		t.Errorf("%d queries and %d work matrices allocated for a peak of %d in flight", len(l.storage), len(l.matrices), peak)
	}
}
