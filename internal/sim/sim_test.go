package sim

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		ev := e.Schedule(-5*time.Second, func() {})
		if ev.At() != time.Second {
			t.Errorf("negative delay scheduled at %v, want 1s", ev.At())
		}
	})
	e.Run()
}

func TestScheduleAtPastClamps(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*time.Second, func() {
		ev := e.ScheduleAt(time.Second, func() {})
		if ev.At() != 2*time.Second {
			t.Errorf("past absolute time scheduled at %v, want 2s", ev.At())
		}
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("Cancel returned true for an already-cancelled event")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelFiredEventIsNoop(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(time.Second, func() {})
	e.Run()
	if e.Cancel(ev) {
		t.Fatal("Cancel returned true for a fired event")
	}
}

func TestRescheduleEarlier(t *testing.T) {
	e := NewEngine()
	var firedAt time.Duration
	ev := e.Schedule(10*time.Second, func() { firedAt = e.Now() })
	e.Schedule(time.Second, func() { e.Reschedule(ev, 2*time.Second) })
	e.Run()
	if firedAt != 3*time.Second {
		t.Errorf("rescheduled event fired at %v, want 3s", firedAt)
	}
}

func TestRescheduleLater(t *testing.T) {
	e := NewEngine()
	var firedAt time.Duration
	ev := e.Schedule(2*time.Second, func() { firedAt = e.Now() })
	e.Schedule(time.Second, func() { e.Reschedule(ev, 9*time.Second) })
	e.Run()
	if firedAt != 10*time.Second {
		t.Errorf("rescheduled event fired at %v, want 10s", firedAt)
	}
}

func TestRescheduleFiredEventSchedulesFresh(t *testing.T) {
	e := NewEngine()
	count := 0
	ev := e.Schedule(time.Second, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	e.Reschedule(ev, time.Second)
	e.Run()
	if count != 2 {
		t.Fatalf("after reschedule of fired event, count = %d, want 2", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3s, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events by t=10s, want 5", len(fired))
	}
	// Clock advances to the deadline even with no events left.
	if e.Now() != 10*time.Second {
		t.Errorf("Now() = %v, want 10s", e.Now())
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 4 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count = %d after Halt, want 4", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	stop := e.Every(2*time.Second, func() { times = append(times, e.Now()) })
	e.Schedule(7*time.Second, stop)
	e.RunUntil(20 * time.Second)
	if len(times) != 3 {
		t.Fatalf("periodic fired %d times, want 3 (at 2,4,6s): %v", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(2*(i+1)) * time.Second
		if at != want {
			t.Errorf("firing %d at %v, want %v", i, at, want)
		}
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var stop func()
	stop = e.Every(time.Second, func() {
		count++
		if count == 2 {
			stop()
		}
	})
	e.RunUntil(10 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2 after stopping inside callback", count)
	}
}

func TestEveryInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewEngine().Every(0, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewEngine().Schedule(time.Second, nil)
}

func TestFiredAndPendingCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, cancellations, and reschedules applied.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n)%64 + 1
		var fired []time.Duration
		events := make([]*Event, 0, count)
		for i := 0; i < count; i++ {
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			events = append(events, e.Schedule(d, func() { fired = append(fired, e.Now()) }))
		}
		// Randomly cancel and reschedule some events up front.
		for i := 0; i < count/3; i++ {
			ev := events[rng.Intn(count)]
			if rng.Intn(2) == 0 {
				e.Cancel(ev)
			} else {
				e.Reschedule(ev, time.Duration(rng.Intn(1000))*time.Millisecond)
			}
		}
		e.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with identical seeds the engine fires the same number of events
// and ends at the same virtual time (determinism).
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, time.Duration) {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		for i := 0; i < 100; i++ {
			e.Schedule(time.Duration(rng.Intn(5000))*time.Millisecond, func() {})
		}
		e.Run()
		return e.Fired(), e.Now()
	}
	f := func(seed int64) bool {
		f1, t1 := run(seed)
		f2, t2 := run(seed)
		return f1 == f2 && t1 == t2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCancelDropsPendingAtOnce(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	ev := e.Schedule(2*time.Second, func() {})
	e.Schedule(3*time.Second, func() {})
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d right after Cancel, want 2", e.Pending())
	}
	if ev.Pending() {
		t.Fatal("cancelled event still reports Pending")
	}
	e.Run()
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
}

func TestArmPendingEventPanics(t *testing.T) {
	e := NewEngine()
	var ev Event
	e.Arm(&ev, time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Arm on a pending event did not panic")
		}
		if e.Pending() != 1 {
			t.Fatalf("Pending = %d after the refused Arm, want 1", e.Pending())
		}
	}()
	e.Arm(&ev, 2*time.Second, func() {})
}

func TestCancelThenArmFiresOnce(t *testing.T) {
	e := NewEngine()
	var ev Event
	var fired []string
	e.Arm(&ev, time.Second, func() { fired = append(fired, "first") })
	if !e.Cancel(&ev) || !ev.Canceled() {
		t.Fatal("owned event not cancelled")
	}
	e.Arm(&ev, 3*time.Second, func() { fired = append(fired, "second") })
	if ev.Canceled() || !ev.Pending() || ev.At() != 3*time.Second {
		t.Fatalf("re-armed event: canceled=%v pending=%v at=%v", ev.Canceled(), ev.Pending(), ev.At())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != "second" {
		t.Fatalf("fired %v, want only the second arming", fired)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock at %v, want 3s", e.Now())
	}
}

func TestRescheduleOwnedEventKeepsIdentityAndOrder(t *testing.T) {
	e := NewEngine()
	var owned Event
	var order []string
	e.Arm(&owned, time.Second, func() { order = append(order, "owned") })
	e.Schedule(5*time.Second, func() { order = append(order, "a") })
	e.Schedule(5*time.Second, func() { order = append(order, "b") })
	if got := e.Reschedule(&owned, 5*time.Second); got != &owned {
		t.Fatal("Reschedule of a pending owned event returned another event")
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3 (no second copy queued)", e.Pending())
	}
	e.Run()
	// A rescheduled event queues behind what is already due at that instant.
	if want := []string{"a", "b", "owned"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	// Fired: Reschedule arms the same event again.
	if got := e.Reschedule(&owned, time.Second); got != &owned || !owned.Pending() {
		t.Fatal("Reschedule of a fired owned event did not re-arm it in place")
	}
	e.Run()
	if len(order) != 4 || order[3] != "owned" {
		t.Fatalf("order = %v, want a fourth firing of the owned event", order)
	}
}

func TestEventRearmedFromItsOwnCallback(t *testing.T) {
	e := NewEngine()
	var ev Event
	var at []time.Duration
	var tick func()
	tick = func() {
		if ev.Pending() {
			t.Error("event still marked pending inside its own callback")
		}
		at = append(at, e.Now())
		if len(at) < 3 {
			e.Arm(&ev, time.Second, tick)
		}
	}
	e.Arm(&ev, time.Second, tick)
	e.Run()
	if !slices.Equal(at, []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}) {
		t.Fatalf("fired at %v, want 1s 2s 3s", at)
	}
	if e.Pending() != 0 || ev.Pending() {
		t.Fatal("event left queued after its last firing")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.Arm(&ev, time.Second, tick)
		e.Cancel(&ev)
	}); allocs != 0 {
		t.Fatalf("Arm allocates %v times per call, want 0", allocs)
	}
}

// refEvent is one pending entry of the property test's reference queue.
type refEvent struct {
	id       int
	at       time.Duration
	seq      uint64
	canceled bool
}

// refQueue is the oracle for TestPropertyHeapMatchesReference: a slice kept
// sorted on (at, seq), the order the engine's contract promises.
type refQueue struct {
	now     time.Duration
	seq     uint64
	pending []refEvent
}

func (r *refQueue) find(id int) int {
	return slices.IndexFunc(r.pending, func(x refEvent) bool { return x.id == id })
}

func (r *refQueue) arm(id int, delay time.Duration) {
	r.seq++
	x := refEvent{id: id, at: r.now + max(delay, 0), seq: r.seq}
	i, _ := slices.BinarySearchFunc(r.pending, x, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	r.pending = slices.Insert(r.pending, i, x)
}

// Property: over random interleavings of Arm, Schedule, Cancel, Reschedule
// (earlier, later, after fire) and Step on a few distinct timestamps, the
// engine fires exactly the reference's sequence, and Pending agrees after
// every operation — for the engine and for each event.
func TestPropertyHeapMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref refQueue
		var events []*Event
		canceled := map[int]bool{}
		fired := -1
		handler := func(id int) func() { return func() { fired = id } }
		delay := func() time.Duration { return time.Duration(rng.Intn(5)-1) * time.Millisecond }
		owned := make([]Event, 8)
		for i := range owned {
			events = append(events, &owned[i])
		}
		for op := 0; op < 200; op++ {
			id := rng.Intn(len(events))
			ev := events[id]
			switch rng.Intn(6) {
			case 0: // Arm an owned event; a pending one must panic untouched.
				if id >= len(owned) {
					break
				}
				d := delay()
				if ev.Pending() {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("seed %d: Arm on a pending event did not panic", seed)
							}
						}()
						e.Arm(ev, d, handler(id))
					}()
					break
				}
				e.Arm(ev, d, handler(id))
				ref.arm(id, d)
				canceled[id] = false
			case 1: // Schedule a fresh event.
				d := delay()
				events = append(events, e.Schedule(d, handler(len(events))))
				ref.arm(len(events)-1, d)
			case 2:
				i := ref.find(id)
				if got := e.Cancel(ev); got != (i >= 0) {
					t.Fatalf("seed %d op %d: Cancel = %v, reference pending = %v", seed, op, got, i >= 0)
				}
				if i >= 0 {
					ref.pending = slices.Delete(ref.pending, i, i+1)
					canceled[id] = true
				}
			case 3: // Reschedule: earlier, later, or re-arm after fire/cancel.
				if ev.fn == nil {
					break
				}
				d := delay()
				e.Reschedule(ev, d)
				if i := ref.find(id); i >= 0 {
					ref.pending = slices.Delete(ref.pending, i, i+1)
				}
				ref.arm(id, d)
				canceled[id] = false
			default:
				fired = -1
				stepped := e.Step()
				if stepped != (len(ref.pending) > 0) {
					t.Fatalf("seed %d op %d: Step = %v with %d reference events", seed, op, stepped, len(ref.pending))
				}
				if stepped {
					want := ref.pending[0]
					ref.pending = ref.pending[1:]
					ref.now = want.at
					if fired != want.id || e.Now() != want.at {
						t.Fatalf("seed %d op %d: fired event %d at %v, want %d at %v", seed, op, fired, e.Now(), want.id, want.at)
					}
				}
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("seed %d op %d: Pending = %d, reference holds %d", seed, op, e.Pending(), len(ref.pending))
			}
			for id, ev := range events {
				if ev.Pending() != (ref.find(id) >= 0) || ev.Canceled() != canceled[id] {
					t.Fatalf("seed %d op %d: event %d pending=%v canceled=%v, reference disagrees", seed, op, id, ev.Pending(), ev.Canceled())
				}
			}
		}
	}
}

// TestRunLoopsYield pins that the run loops share the processor: on one P, a
// goroutine started before a 10 000-event run gets to run before the run's
// last event fires, because the loop yields every yieldEvery events. Without
// the yield it would wait for an asynchronous preemption, milliseconds away.
func TestRunLoopsYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const events = 10000
	for name, run := range map[string]func(*Engine){
		"RunUntil": func(e *Engine) { e.RunUntil(time.Hour) },
		"Run":      (*Engine).Run,
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			var ev Event
			var ran atomic.Bool
			seenAt := 0 // the event that first saw the goroutine's mark
			var tick func()
			tick = func() {
				if seenAt == 0 && ran.Load() {
					seenAt = int(e.Fired())
				}
				if e.Fired() < events {
					e.Arm(&ev, time.Millisecond, tick)
				}
			}
			e.Arm(&ev, time.Millisecond, tick)
			done := make(chan struct{})
			go func() {
				ran.Store(true)
				close(done)
			}()
			run(e)
			<-done
			if e.Fired() != events {
				t.Fatalf("fired %d events, want %d", e.Fired(), events)
			}
			if seenAt == 0 {
				t.Fatalf("the goroutine did not run before event %d of %d fired", events, events)
			}
		})
	}
}
