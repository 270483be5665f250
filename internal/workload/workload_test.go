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
