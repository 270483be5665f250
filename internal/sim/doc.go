// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives the PowerChief service model in virtual time: every
// latency-affecting occurrence (query arrival, service completion, control
// interval) is an Event on a typed 4-ary min-heap keyed by (virtual time,
// sequence number). Every Arm and Reschedule takes a fresh sequence number,
// so the key is unique and the order total: any heap shape fires the same
// sequence, and runs are exactly reproducible.
//
// Events are cancellable and reschedulable, which the service model uses to
// re-time an in-flight query when the core it runs on changes frequency.
//
// # Event ownership
//
// There is one queueing path, Arm, and it takes the Event from its caller.
// A component that can have at most one occurrence outstanding — a stage
// instance's service completion, a workload generator's next candidate
// arrival, Every's next tick — embeds one Event, binds its handler once, and
// arms that same event each time: queueing costs no allocation, and the
// owner can Cancel or Reschedule it by address. Only the owner may arm its
// event. An event is in the queue at most once: Arm panics on a pending
// event, and the engine clears the pending mark before it calls the
// handler, so a handler re-arms its own event (the instance does, from
// complete, when it pulls the next query). Cancel removes the event from the
// heap at once; Reschedule moves a pending event and re-arms a fired or
// cancelled one, keeping its identity either way. A pending Event must not
// be copied or reused: the heap holds its address.
//
// Schedule is Arm on a fresh Event, for one-off occurrences whose caller has
// nowhere to keep one (a test's probe, a churn action, a hop delay). The
// engine has no event pool or free list on purpose: a recycled event would
// make every *Event a caller still holds (to Cancel, to ask Pending) a
// dangling handle, where ownership costs nothing and cannot alias.
//
// # Sharing the processor
//
// A simulation never blocks, so a goroutine running one holds its P until
// the scheduler preempts it. The garbage collector's fractional mark worker,
// the sweeper and the scavenger need that P: on one P a mark phase would
// stretch to milliseconds of wall time, with the write barrier on for all of
// it. RunUntil and Run therefore call runtime.Gosched every 1 024 fired
// events (counted by Fired, so short RunUntil slices yield at the same
// pace). One goroutine owns the engine, so the yield changes no event and
// no order. Step never yields: a caller may step the engine under a lock,
// as loadgen's DES target does.
//
// Entry points: NewEngine; Arm/Schedule/ScheduleAt place events, Every
// installs a periodic one (control intervals), Run/RunUntil/Step advance
// virtual time. Determinism here is what makes the figures under results/ and the
// loadgen DES target byte-reproducible per seed.
package sim
