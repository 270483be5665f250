package controlplane

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/sim"
)

// fakeAdjuster scripts the per-interval results.
type fakeAdjuster struct {
	mu    sync.Mutex
	calls int
	errAt map[int]error // 1-based call → error
}

func (f *fakeAdjuster) Adjust(p core.Policy) (core.BoostOutcome, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if err := f.errAt[f.calls]; err != nil {
		return core.BoostOutcome{}, err
	}
	return core.BoostOutcome{Kind: core.BoostFrequency, Target: fmt.Sprintf("call_%d", f.calls)}, nil
}

func (f *fakeAdjuster) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestLoopOnSimClockIsDeterministic(t *testing.T) {
	eng := sim.NewEngine()
	adj := &fakeAdjuster{}
	loop, err := Start(SimClock(eng), adj, Options{Policy: core.Static{}, Interval: 25 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(250 * time.Second)
	loop.Stop()
	if got := adj.count(); got != 10 {
		t.Errorf("adjust fired %d times over 250s at 25s, want 10", got)
	}
	if loop.Total() != 10 {
		t.Errorf("total = %d, want 10", loop.Total())
	}
	if b := loop.Boosts(); b[core.BoostFrequency] != 10 {
		t.Errorf("boosts = %v, want 10 freq", b)
	}
}

func TestLoopBoundsOutcomeHistory(t *testing.T) {
	eng := sim.NewEngine()
	adj := &fakeAdjuster{}
	loop, err := Start(SimClock(eng), adj, Options{Policy: core.Static{}, Interval: time.Second, History: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The ring grows with the ticks up to History, then wraps: after every
	// tick — short of full, exactly full, mid-wrap, wrapped twice — it holds
	// the latest min(tick, 4) calls, oldest first.
	for tick := 1; tick <= 10; tick++ {
		eng.RunUntil(time.Duration(tick) * time.Second)
		outs := loop.Outcomes()
		held := min(tick, 4)
		if len(outs) != held {
			t.Fatalf("tick %d: ring holds %d outcomes, want %d", tick, len(outs), held)
		}
		for i, out := range outs {
			if want := fmt.Sprintf("call_%d", tick-held+1+i); out.Target != want {
				t.Errorf("tick %d: outcomes[%d].Target = %q, want %q", tick, i, out.Target, want)
			}
		}
		if cap(loop.ring) > 4 {
			t.Fatalf("tick %d: ring grew to %d slots past History 4", tick, cap(loop.ring))
		}
	}
	loop.Stop()
	if loop.Total() != 10 {
		t.Errorf("total = %d, want 10 despite the bounded ring", loop.Total())
	}
	if b := loop.Boosts(); b[core.BoostFrequency] != 10 {
		t.Errorf("boosts = %v, want all 10 counted despite the bounded ring", b)
	}
}

func TestLoopAllocatesHistoryOnDemand(t *testing.T) {
	eng := sim.NewEngine()
	loop, err := Start(SimClock(eng), &fakeAdjuster{}, Options{Policy: core.Static{}, Interval: 25 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(900 * time.Second) // a Table 2 run: 36 ticks
	loop.Stop()
	if got := len(loop.Outcomes()); got != 36 {
		t.Fatalf("ring holds %d outcomes, want 36", got)
	}
	if cap(loop.ring) >= DefaultHistory {
		t.Errorf("a 36-tick run holds a %d-slot ring; the default History is a bound, not a reservation", cap(loop.ring))
	}
}

func TestLoopAdjustRegistersBeforeSample(t *testing.T) {
	eng := sim.NewEngine()
	var order []string
	adj := adjusterFunc(func(core.Policy) (core.BoostOutcome, error) {
		order = append(order, "adjust")
		return core.BoostOutcome{}, nil
	})
	loop, err := Start(SimClock(eng), adj, Options{
		Policy:         core.Static{},
		Interval:       time.Second,
		SampleInterval: time.Second,
		OnSample:       func(time.Duration) { order = append(order, "sample") },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	loop.Stop()
	want := []string{"adjust", "sample", "adjust", "sample"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (equal timestamps must fire adjust-first)", order, want)
		}
	}
}

type adjusterFunc func(core.Policy) (core.BoostOutcome, error)

func (f adjusterFunc) Adjust(p core.Policy) (core.BoostOutcome, error) { return f(p) }

func TestLoopCountsDegradedIntervals(t *testing.T) {
	eng := sim.NewEngine()
	adj := &fakeAdjuster{errAt: map[int]error{
		1: fmt.Errorf("adjusting: %w", fault.ErrNoHealthyStages),
		2: fmt.Errorf("stage ASR: %w", fault.ErrStageDown),
		3: errors.New("some other failure"),
	}}
	var seen []error
	loop, err := Start(SimClock(eng), adj, Options{
		Policy:   core.Static{},
		Interval: time.Second,
		OnError:  func(err error) { seen = append(seen, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4 * time.Second)
	loop.Stop()
	if got := loop.Degraded(); got != 2 {
		t.Errorf("degraded = %d, want 2", got)
	}
	if n, last := loop.Errors(); n != 3 || last != nil && len(seen) != 3 {
		t.Errorf("errors = %d (last %v), callbacks = %d; want 3 errors, 3 callbacks", n, last, len(seen))
	}
	if loop.Total() != 1 {
		t.Errorf("total = %d, want 1 successful adjust", loop.Total())
	}
}

func TestStartValidation(t *testing.T) {
	eng := sim.NewEngine()
	clock := SimClock(eng)
	adj := &fakeAdjuster{}
	cases := map[string]func() (*Loop, error){
		"nil clock":    func() (*Loop, error) { return Start(nil, adj, Options{Policy: core.Static{}, Interval: 1}) },
		"nil adjuster": func() (*Loop, error) { return Start(clock, nil, Options{Policy: core.Static{}, Interval: 1}) },
		"nil policy":   func() (*Loop, error) { return Start(clock, adj, Options{Interval: 1}) },
		"zero interval": func() (*Loop, error) {
			return Start(clock, adj, Options{Policy: core.Static{}})
		},
	}
	for name, fn := range cases {
		if _, err := fn(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestLoopStopConcurrently is the regression test for the double-close panic
// the old live controller had: many goroutines calling Stop at once must all
// return, exactly once closing the loop. Run with -race.
func TestLoopStopConcurrently(t *testing.T) {
	adj := &fakeAdjuster{}
	loop, err := Start(WallClock(0.001), adj, Options{Policy: core.Static{}, Interval: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop.Stop()
		}()
	}
	wg.Wait()
	loop.Stop() // still idempotent after the storm
}

func TestWallClockScalesIntervals(t *testing.T) {
	adj := &fakeAdjuster{}
	// 1 engine second = 1ms wall: a 5s interval ticks every 5ms.
	loop, err := Start(WallClock(0.001), adj, Options{Policy: core.Static{}, Interval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for adj.count() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	loop.Stop()
	if adj.count() < 3 {
		t.Errorf("adjust fired %d times in 2s wall, want ≥ 3", adj.count())
	}
}
