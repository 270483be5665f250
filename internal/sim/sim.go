package sim

import (
	"fmt"
	"runtime"
	"time"
)

// yieldEvery is how many fired events RunUntil and Run go between
// runtime.Gosched calls: the package doc's "Sharing the processor".
const yieldEvery = 1024

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

// before orders events by (at, seq). Sequence numbers are unique, so the
// order is total: every heap shape pops the same sequence.
func (ev *Event) before(o *Event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// eventQueue is a 4-ary min-heap on (at, seq). Each event's pos is its index
// + 1, so Cancel and Reschedule find it without a search. up and down move a
// hole and place the event once instead of swapping at every level.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes the event at index i out of the queue and returns it.
func (q *eventQueue) remove(i int) *Event {
	h, n := *q, len(*q)-1
	ev := h[i]
	h[i], h[n] = h[n], nil
	*q, ev.pos = h[:n], 0
	if i < n {
		q.fix(i)
	}
	return ev
}

// fix restores the heap order after the key of the event at index i changed.
func (q eventQueue) fix(i int) {
	if ev := q[i]; !q.up(i, ev) {
		q.down(i, ev)
	}
}

// up sifts ev from index i towards the root and reports whether it moved.
func (q eventQueue) up(i int, ev *Event) bool {
	start := i
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(q[p]) {
			break
		}
		q[i], q[p].pos = q[p], i+1
		i = p
	}
	q[i], ev.pos = ev, i+1
	return i != start
}

// down sifts ev from index i towards the leaves.
func (q eventQueue) down(i int, ev *Event) {
	for c := 4*i + 1; c < len(q); c = 4*i + 1 {
		m := c
		for j := c + 1; j < min(c+4, len(q)); j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(ev) {
			break
		}
		q[i], q[m].pos = q[m], i+1
		i = m
	}
	q[i], ev.pos = ev, i+1
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
	e.queue.push(ev)
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
	e.queue.remove(ev.pos - 1)
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
	e.queue.fix(ev.pos - 1)
	return ev
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false when no events remain. Step never yields the processor,
// so a caller may step the engine while it holds a lock.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.remove(0)
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
// engine can be resumed with further RunUntil calls. Every yieldEvery fired
// events it yields the processor, so the collector's background work runs
// while a simulation does; the events fired and their order do not change.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.halted = false
	for len(e.queue) > 0 && !e.halted && e.queue[0].at <= deadline {
		e.Step()
		if e.fired%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes all pending events to exhaustion, yielding the processor
// every yieldEvery fired events as RunUntil does.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
		if e.fired%yieldEvery == 0 {
			runtime.Gosched()
		}
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
