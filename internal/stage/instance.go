package stage

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stats"
)

// queued pairs a query with the virtual time it entered this instance's
// queue. The same query object can sit in several instance queues at once
// when the stage fans out.
type queued struct {
	q     *query.Query
	enter time.Duration
}

// Instance is one service instance: a worker pinned to a physical core,
// serving its own FIFO queue at the core's frequency. Each instance measures
// the queuing and serving time of every query it processes and appends them
// to the query (the joint design), and tracks its own busy time for the
// withdraw rule.
//
// An instance serves one query at a time, so it owns the one completion
// event it can ever have outstanding and arms it per query (sim.Engine.Arm);
// serving a query allocates nothing. Instances are handled by pointer only:
// the engine's queue holds the address of the embedded event.
type Instance struct {
	stage  *Stage
	name   string
	branch int    // fan-out branch index (stable per instance)
	slot   uint32 // dense per-System number, stamped on every record

	core    cmp.CoreID
	level   cmp.Level
	boosted bool // launched by an instance boost (clone)

	// The FIFO is queue[head:]. Slots before head are zeroed as they are
	// served, so a finished query is not kept alive by the backing array.
	queue []queued
	head  int

	serving    queued // the in-flight query; meaningful while inService
	inService  bool
	serveStart time.Duration
	serveEnd   sim.Event     // armed while inService
	onComplete func()        // in.complete, bound once
	endAt      time.Duration // scheduled completion time of the in-flight query

	busy   *stats.BusyTracker
	served uint64

	draining bool
	retired  bool
}

func newInstance(st *Stage, name string, branch int, core cmp.CoreID, level cmp.Level) *Instance {
	st.sys.slots++
	in := &Instance{
		stage:  st,
		name:   name,
		branch: branch,
		slot:   st.sys.slots,
		core:   core,
		level:  level,
		busy:   stats.NewBusyTracker(),
	}
	in.onComplete = in.complete
	// The utilization epoch starts at creation: a freshly cloned instance
	// must not look idle for the part of the withdraw interval that
	// predates it.
	in.busy.ResetEpoch(st.sys.eng.Now())
	return in
}

// Name returns the instance signature, e.g. "QA_2".
func (in *Instance) Name() string { return in.name }

// Slot returns the instance's number, dense per System and stamped on every
// record it emits (query.Record.Slot).
func (in *Instance) Slot() uint32 { return in.slot }

// Stage returns the owning stage.
func (in *Instance) Stage() *Stage { return in.stage }

// StageName returns the owning stage's name.
func (in *Instance) StageName() string { return in.stage.spec.Name }

// Level returns the instance's current frequency level.
func (in *Instance) Level() cmp.Level { return in.level }

// Power returns the power the instance's core currently draws.
func (in *Instance) Power() cmp.Watts { return in.stage.sys.chip.Model().Power(in.level) }

// QueueLen returns the realtime load: queued queries plus the one in
// service. This is the L of the paper's latency metric (Equation 1).
func (in *Instance) QueueLen() int {
	n := in.waiting()
	if in.inService {
		n++
	}
	return n
}

// waiting returns the number of queries queued behind the one in service.
func (in *Instance) waiting() int { return len(in.queue) - in.head }

// push appends items to the FIFO. When the backing array is full and at
// least half of it is served slots, the live region moves to the front
// instead of the array growing; the half keeps the copying amortized
// constant per query however long the queue stands.
func (in *Instance) push(items ...queued) {
	if in.head > 0 && len(in.queue)+len(items) > cap(in.queue) && 2*in.head >= len(in.queue) {
		n := copy(in.queue, in.queue[in.head:])
		clear(in.queue[n:])
		in.queue, in.head = in.queue[:n], 0
	}
	in.queue = append(in.queue, items...)
}

// pop removes and returns the head of the FIFO, which must not be empty.
func (in *Instance) pop() queued {
	item := in.queue[in.head]
	in.queue[in.head] = queued{}
	in.head++
	if in.head == len(in.queue) {
		in.queue, in.head = in.queue[:0], 0
	}
	return item
}

// Served returns the number of queries this instance completed.
func (in *Instance) Served() uint64 { return in.served }

// Draining reports whether the instance is being withdrawn.
func (in *Instance) Draining() bool { return in.draining }

// Retired reports whether the instance has been fully withdrawn.
func (in *Instance) Retired() bool { return in.retired }

// Utilization returns the fraction of the current withdraw epoch the
// instance spent serving queries.
func (in *Instance) Utilization() float64 {
	return in.busy.Utilization(in.stage.sys.eng.Now())
}

// ResetUtilizationEpoch starts a new withdraw-interval accounting epoch.
func (in *Instance) ResetUtilizationEpoch() {
	in.busy.ResetEpoch(in.stage.sys.eng.Now())
}

// enqueue adds q to the instance queue and starts service if idle.
func (in *Instance) enqueue(q *query.Query) {
	if in.retired {
		panic(fmt.Sprintf("stage: enqueue on retired instance %s", in.name))
	}
	in.push(queued{q: q, enter: in.stage.sys.eng.Now()})
	in.maybeStart()
}

// maybeStart begins serving the head of the queue when the instance is idle.
func (in *Instance) maybeStart() {
	if in.inService || in.waiting() == 0 || in.retired {
		return
	}
	in.serving, in.inService = in.pop(), true
	now := in.stage.sys.eng.Now()
	in.serveStart = now
	in.busy.SetBusy(now)
	d := in.serveTime(in.serving.q)
	in.endAt = now + d
	in.stage.sys.eng.Arm(&in.serveEnd, d, in.onComplete)
}

// serveTime maps the query's intrinsic demand to wall time at the current
// frequency via the service's offline profile.
func (in *Instance) serveTime(q *query.Query) time.Duration {
	work := q.WorkAt(in.stage.index, in.branch)
	ratio := in.stage.spec.Profile.ExecRatio(in.level)
	d := time.Duration(float64(work) * ratio)
	if d < time.Nanosecond {
		d = time.Nanosecond // every query costs something
	}
	return d
}

// complete finishes the in-flight query: measure, record, hand back to the
// stage, and pull the next query.
func (in *Instance) complete() {
	if !in.inService {
		panic(fmt.Sprintf("stage: completion on idle instance %s", in.name))
	}
	item := in.serving
	now := in.stage.sys.eng.Now()
	in.serving, in.inService = queued{}, false
	in.served++

	// The record is built where it lands, field by field in the query's own
	// slice: an 80-byte Record built aside and copied in would cost a bulk
	// copy per completion.
	q := item.q
	q.Records = append(q.Records, query.Record{})
	r := &q.Records[len(q.Records)-1]
	r.Query, r.Stage, r.Instance = q.ID, in.stage.spec.Name, in.name
	r.QueueEnter, r.ServeStart, r.ServeEnd = item.enter, in.serveStart, now
	r.Level, r.Boosted, r.Slot = int(in.level), in.boosted, in.slot

	if in.waiting() == 0 {
		in.busy.SetIdle(now)
	}
	if in.draining && in.waiting() == 0 {
		in.finalizeWithdraw()
	} else {
		in.maybeStart()
	}
	in.stage.queryDone(item.q)
}

// SetLevel performs a DVFS transition on the instance's core. If a query is
// in flight, its remaining work is re-timed at the new speed (the Haswell
// on-chip regulators make the transition itself sub-microsecond, which the
// model treats as instantaneous). Raising the level fails when the chip
// budget has no headroom.
func (in *Instance) SetLevel(l cmp.Level) error {
	if in.retired {
		return fmt.Errorf("stage: DVFS on retired instance %s", in.name)
	}
	if l == in.level {
		return nil
	}
	if err := in.stage.sys.chip.SetLevel(in.core, l); err != nil {
		return err
	}
	old := in.level
	in.level = l
	if in.inService {
		now := in.stage.sys.eng.Now()
		remaining := in.endAt - now
		if remaining < 0 {
			remaining = 0
		}
		oldRatio := in.stage.spec.Profile.ExecRatio(old)
		newRatio := in.stage.spec.Profile.ExecRatio(l)
		scaled := time.Duration(float64(remaining) * newRatio / oldRatio)
		in.endAt = now + scaled
		in.stage.sys.eng.Reschedule(&in.serveEnd, scaled)
	}
	return nil
}

// finalizeWithdraw releases the instance's core and detaches it from the
// stage. Only reachable when the instance is idle and draining.
func (in *Instance) finalizeWithdraw() {
	if in.inService || in.waiting() != 0 {
		panic(fmt.Sprintf("stage: finalizeWithdraw on busy instance %s", in.name))
	}
	in.retired = true
	in.busy.SetIdle(in.stage.sys.eng.Now())
	if err := in.stage.sys.chip.Release(in.core); err != nil {
		panic(fmt.Sprintf("stage: releasing core of %s: %v", in.name, err))
	}
	in.stage.remove(in)
}
