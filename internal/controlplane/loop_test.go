package controlplane

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestLoopStopLeavesNothingRunning: Stop ends every epoch the loop
// registered, on either clock, with and without a sample epoch. On the wall
// clock each epoch is a ticker goroutine, so the goroutine count comes back
// to its base; on the simulator clock each is an engine event, so running
// the engine on fires neither again.
func TestLoopStopLeavesNothingRunning(t *testing.T) {
	options := func(sample bool, onSample func()) Options {
		opts := Options{Policy: core.Static{}, Interval: time.Second}
		if sample {
			opts.SampleInterval, opts.OnSample = time.Second, func(time.Duration) { onSample() }
		}
		return opts
	}
	for _, sample := range []bool{false, true} {
		t.Run(fmt.Sprintf("wall/sample=%v", sample), func(t *testing.T) {
			base := runtime.NumGoroutine()
			adj := &fakeAdjuster{}
			var samples atomic.Int64
			// 1 engine second = 1 ms wall.
			loop, err := Start(WallClock(0.001), adj, options(sample, func() { samples.Add(1) }))
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if adj.count() >= 2 && (!sample || samples.Load() >= 2) {
					break
				}
			}
			loop.Stop()
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(10 * time.Millisecond)
			}
			if n > base {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines after Stop, %d before Start:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
		t.Run(fmt.Sprintf("sim/sample=%v", sample), func(t *testing.T) {
			base := runtime.NumGoroutine()
			eng := sim.NewEngine()
			adjusts, samples := 0, 0
			adj := adjusterFunc(func(core.Policy) (core.BoostOutcome, error) {
				adjusts++
				return core.BoostOutcome{}, nil
			})
			loop, err := Start(SimClock(eng), adj, options(sample, func() { samples++ }))
			if err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(3 * time.Second)
			loop.Stop()
			wantSamples := 0
			if sample {
				wantSamples = 3
			}
			if adjusts != 3 || samples != wantSamples {
				t.Fatalf("before Stop: %d adjusts, %d samples; want 3, %d", adjusts, samples, wantSamples)
			}
			eng.RunUntil(10 * time.Second)
			if adjusts != 3 || samples != wantSamples {
				t.Errorf("after Stop: %d adjusts, %d samples; want 3, %d", adjusts, samples, wantSamples)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Stop, %d before Start", n, base)
			}
		})
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
