package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled occurrence in virtual time. Engine.Schedule returns a
// fresh one; a caller that fires the same occurrence over and over (an
// instance's service completion, a generator's next arrival) embeds an Event
// and queues it with Engine.Arm instead. The zero value is an idle event.
// Either kind can be cancelled or rescheduled until it fires. An Event must
// not be copied while it is pending: the queue holds its address.
type Event struct {
	at       time.Duration
	seq      uint64
	pos      int // heap index + 1; zero when not queued
	fn       func()
	canceled bool
}

// At reports the virtual time the event is scheduled to fire.
func (e *Event) At() time.Duration { return e.at }

// Canceled reports whether the event was cancelled and not armed since.
func (e *Event) Canceled() bool { return e.canceled }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e.pos != 0 }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = i + 1
	q[j].pos = j + 1
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	*q = append(*q, ev)
	ev.pos = len(*q)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.pos = 0
	*q = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    time.Duration
	seq    uint64
	queue  eventQueue
	fired  uint64
	halted bool
}

// NewEngine returns an engine with the virtual clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events queued to fire. Cancel removes its
// event at once, so cancelled events are never counted.
func (e *Engine) Pending() int { return len(e.queue) }

// Arm queues the caller-owned event ev to run fn after delay of virtual
// time. A negative delay is treated as zero (fire as soon as possible, after
// already-queued events at the current instant). An event can be queued at
// most once: Arm panics if ev is still pending. The engine clears the
// pending mark before it invokes fn, so fn may re-arm its own event.
//
// Arm allocates nothing, which is why the owner keeps the Event: the engine
// has no pool or free list, and an event handed out by Schedule is never
// reused behind its holder's back.
func (e *Engine) Arm(ev *Event, delay time.Duration, fn func()) {
	if ev == nil {
		panic("sim: Arm called with nil event")
	}
	if fn == nil {
		panic("sim: event armed with nil function")
	}
	if ev.pos != 0 {
		panic("sim: Arm called on a pending event")
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.canceled = e.now+delay, e.seq, fn, false
	heap.Push(&e.queue, ev)
}

// Schedule queues fn to run after delay of virtual time on a fresh event:
// Arm for callers that have no event of their own. The returned Event may be
// cancelled or rescheduled.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	ev := new(Event)
	e.Arm(ev, delay, fn)
	return ev
}

// ScheduleAt queues fn at an absolute virtual time. Times in the past are
// clamped to the current instant.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) *Event {
	return e.Schedule(at-e.now, fn)
}

// Cancel removes a pending event. Cancelling a fired or already-cancelled
// event is a no-op. Returns true if the event was pending and is now
// cancelled.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.pos == 0 {
		return false
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.pos-1)
	return true
}

// Reschedule moves a pending event to fire after delay from now, behind
// events already queued for that instant. An event that already fired or
// was cancelled is armed again with the function it last carried. Either
// way the event keeps its identity; ev is returned for convenience.
func (e *Engine) Reschedule(ev *Event, delay time.Duration) *Event {
	if ev == nil {
		panic("sim: Reschedule called with nil event")
	}
	if ev.pos == 0 {
		e.Arm(ev, delay, ev.fn)
		return ev
	}
	if delay < 0 {
		delay = 0
	}
	ev.at = e.now + delay
	e.seq++
	ev.seq = e.seq
	heap.Fix(&e.queue, ev.pos-1)
	return ev
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", ev.at, e.now))
	}
	e.now = ev.at
	e.fired++
	ev.fn()
	return true
}

// RunUntil executes events until the virtual clock would pass deadline or no
// events remain. The clock is left at min(deadline, time of last event). The
// engine can be resumed with further RunUntil calls.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.halted = false
	for len(e.queue) > 0 && !e.halted && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes all pending events to exhaustion.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Every schedules fn to run periodically with the given interval, starting
// after one interval. The returned stop function cancels future firings.
// The interval must be positive.
func (e *Engine) Every(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	stopped := false
	var tick func()
	ev := new(Event)
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.Arm(ev, interval, tick)
		}
	}
	e.Arm(ev, interval, tick)
	return func() {
		stopped = true
		e.Cancel(ev)
	}
}
