package live

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
)

// queued pairs a query with its virtual enqueue time.
type queued struct {
	q     *query.Query
	enter time.Duration
}

// Instance is a live service instance: a worker goroutine serving its own
// FIFO queue on a modelled core. Mutable state is guarded by the cluster's
// mutex; only the simulated work (sleep) happens outside it.
type Instance struct {
	stage  *Stage
	name   string
	branch int
	core   cmp.CoreID

	// Guarded by cluster.mu.
	level    cmp.Level
	boosted  bool // launched by an instance boost (clone)
	queue    []queued
	serving  bool
	busy     *stats.BusyTracker
	served   uint64
	draining bool
	retired  bool
	stopped  bool

	wakeCh chan struct{}
}

func newInstance(st *Stage, name string, branch int, coreID cmp.CoreID, level cmp.Level) *Instance {
	in := &Instance{
		stage:  st,
		name:   name,
		branch: branch,
		core:   coreID,
		level:  level,
		busy:   stats.NewBusyTracker(),
		wakeCh: make(chan struct{}, 1),
	}
	in.busy.ResetEpoch(st.cluster.Now())
	return in
}

// wake nudges the worker; callers may hold the cluster lock.
func (in *Instance) wake() {
	select {
	case in.wakeCh <- struct{}{}:
	default:
	}
}

// stopLocked asks the worker to exit; caller holds cluster.mu.
func (in *Instance) stopLocked() {
	in.stopped = true
	in.wake()
}

// Name implements core.Instance.
func (in *Instance) Name() string { return in.name }

// StageName implements core.Instance.
func (in *Instance) StageName() string { return in.stage.spec.Name }

// QueueLen implements core.Instance: waiting plus in-service.
func (in *Instance) QueueLen() int {
	in.stage.cluster.mu.Lock()
	defer in.stage.cluster.mu.Unlock()
	return in.backlogLocked()
}

func (in *Instance) backlogLocked() int {
	n := len(in.queue)
	if in.serving {
		n++
	}
	return n
}

// Level implements core.Instance.
func (in *Instance) Level() cmp.Level {
	in.stage.cluster.mu.Lock()
	defer in.stage.cluster.mu.Unlock()
	return in.level
}

// SetLevel implements core.Instance. The new level applies from the next
// query; the in-flight query (if any) finishes at the old speed — the live
// engine cannot re-time a sleep already underway. A retired instance has
// released its core, so a transition on it fails (and a plan naming it rolls
// back), as on the DES engine.
func (in *Instance) SetLevel(l cmp.Level) error {
	in.stage.cluster.mu.Lock()
	defer in.stage.cluster.mu.Unlock()
	if in.retired {
		return fmt.Errorf("live: DVFS on retired instance %s", in.name)
	}
	if l == in.level {
		return nil
	}
	if err := in.stage.cluster.chip.SetLevel(in.core, l); err != nil {
		return err
	}
	in.level = l
	return nil
}

// Utilization implements core.Instance.
func (in *Instance) Utilization() float64 {
	c := in.stage.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	return in.busy.Utilization(c.Now())
}

// ResetUtilizationEpoch implements core.Instance.
func (in *Instance) ResetUtilizationEpoch() {
	c := in.stage.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	in.busy.ResetEpoch(c.Now())
}

// Served returns the number of completed queries.
func (in *Instance) Served() uint64 {
	in.stage.cluster.mu.Lock()
	defer in.stage.cluster.mu.Unlock()
	return in.served
}

// Retired reports whether the instance has been withdrawn.
func (in *Instance) Retired() bool {
	in.stage.cluster.mu.Lock()
	defer in.stage.cluster.mu.Unlock()
	return in.retired
}

// enqueueLocked appends a query; caller holds cluster.mu.
func (in *Instance) enqueueLocked(q *query.Query) {
	in.queue = append(in.queue, queued{q: q, enter: in.stage.cluster.Now()})
	in.wake()
}

// run is the worker loop.
func (in *Instance) run() {
	c := in.stage.cluster
	defer c.wg.Done()
	for {
		c.mu.Lock()
		if in.stopped {
			c.mu.Unlock()
			return
		}
		if len(in.queue) == 0 {
			if in.draining && !in.retired {
				in.retireLocked()
				c.mu.Unlock()
				return
			}
			in.busy.SetIdle(c.Now())
			c.mu.Unlock()
			<-in.wakeCh
			continue
		}
		item := in.queue[0]
		in.queue = in.queue[1:]
		in.serving = true
		serveStart := c.Now()
		in.busy.SetBusy(serveStart)
		level := in.level
		boosted := in.boosted
		c.mu.Unlock()

		// Simulated work: the query's demand at this frequency, compressed
		// by the cluster time scale.
		work := item.q.WorkAt(in.stage.index, in.branch)
		d := time.Duration(float64(work) * in.stage.spec.Profile.ExecRatio(level))
		if wall := c.wall(d); wall > 0 {
			time.Sleep(wall)
		}

		c.mu.Lock()
		now := c.Now()
		in.serving = false
		in.served++
		// Built where it lands, as stage.Instance does: no 80-byte copy.
		q := item.q
		q.Records = append(q.Records, query.Record{})
		r := &q.Records[len(q.Records)-1]
		r.Query, r.Stage, r.Instance = q.ID, in.stage.spec.Name, in.name
		r.QueueEnter, r.ServeStart, r.ServeEnd = item.enter, serveStart, now
		r.Level, r.Boosted = int(level), boosted
		var cbs []func(*query.Query)
		if in.stage.spec.Kind != stage.FanOut || item.q.BranchDone() {
			cbs = c.advanceLocked(item.q, in.stage.index)
		}
		c.mu.Unlock()
		for _, fn := range cbs {
			fn(item.q)
		}
	}
}

// retireLocked releases the core; caller holds cluster.mu.
func (in *Instance) retireLocked() {
	in.retired = true
	in.busy.SetIdle(in.stage.cluster.Now())
	_ = in.stage.cluster.chip.Release(in.core)
	in.stage.removeLocked(in)
}
