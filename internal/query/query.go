package query

import (
	"fmt"
	"time"
)

// ID uniquely identifies a query within a run.
type ID uint64

// Record is one instance's latency statistics for one query, appended by the
// instance when it finishes serving the query.
type Record struct {
	Query      ID
	Stage      string        // stage name, e.g. "QA"
	Instance   string        // instance signature, e.g. "QA_2"
	QueueEnter time.Duration // virtual time the query entered the instance queue
	ServeStart time.Duration // virtual time service began
	ServeEnd   time.Duration // virtual time service completed

	// Level is the instance's frequency level while it served the query and
	// Boosted marks instances launched by an instance boost (clones) — the
	// DVFS state the telemetry tracer attaches to each span. Engines that
	// predate these fields leave them zero, which decodes as "base level,
	// original instance".
	Level   int
	Boosted bool
}

// Queuing returns the time the query waited in the instance queue.
func (r Record) Queuing() time.Duration { return r.ServeStart - r.QueueEnter }

// Serving returns the time the instance spent processing the query.
func (r Record) Serving() time.Duration { return r.ServeEnd - r.ServeStart }

// Processing returns the total delay contributed at the instance.
func (r Record) Processing() time.Duration { return r.ServeEnd - r.QueueEnter }

// Validate checks the record's internal time ordering.
func (r Record) Validate() error {
	if r.ServeStart < r.QueueEnter {
		return fmt.Errorf("query: record %d@%s serves before queuing (%v < %v)", r.Query, r.Instance, r.ServeStart, r.QueueEnter)
	}
	if r.ServeEnd < r.ServeStart {
		return fmt.Errorf("query: record %d@%s ends before starting (%v < %v)", r.Query, r.Instance, r.ServeEnd, r.ServeStart)
	}
	return nil
}

// Query is a user request flowing through the multi-stage pipeline. Work
// holds the intrinsic service demand per stage, drawn by the load generator
// when the query is created: Work[s][i] is the demand of stage s — one entry
// for a pipeline stage, one entry per fan-out branch for a fan-out stage —
// expressed as the service duration at the reference (lowest) frequency on a
// perfectly CPU-bound core. The stage's speedup profile maps it to actual
// serving time at the core's frequency.
type Query struct {
	ID      ID
	Arrival time.Duration // virtual time the query entered the system
	Work    [][]time.Duration
	Records []Record

	// Done is the virtual time the query left the last stage; zero until
	// completion (queries never complete at virtual time zero since arrivals
	// are strictly positive).
	Done time.Duration

	// pending counts outstanding fan-out branches at the current stage.
	pending int

	// pool is the Pool that made the query and takes it back on Release (nil
	// for a query from New); free marks the time it spends inside that pool.
	pool *Pool
	free bool
}

// New creates a query with the given arrival time and per-stage work. The
// query belongs to whoever holds it, for good: Release does nothing to it.
func New(id ID, arrival time.Duration, work [][]time.Duration) *Query {
	q := &Query{ID: id, Arrival: arrival}
	q.SetWork(work)
	return q
}

// SetWork installs the query's work matrix. Every work entry is served once
// and leaves one record, so Records is sized here for the query's whole
// life; a recycled query whose Records already hold that many keeps them.
func (q *Query) SetWork(work [][]time.Duration) {
	q.Work = work
	if n := entries(work); cap(q.Records) < n {
		q.Records = make([]Record, 0, n)
	}
}

// entries counts the work entries of a matrix.
func entries(work [][]time.Duration) int {
	n := 0
	for _, row := range work {
		n += len(row)
	}
	return n
}

// Pool recycles the queries of one simulated run, for the run's one
// goroutine: a LIFO free list, ready at its zero value. It never holds more
// than the run's peak in-flight count, which the run kept live anyway.
type Pool struct {
	free []*Query
}

// Get returns a query with the given identity, every other field as New
// leaves it, except that a recycled one keeps its previous Work matrix (for
// the drawer to refill; SetWork follows) and the capacity of its Records.
func (p *Pool) Get(id ID, arrival time.Duration) *Query {
	n := len(p.free)
	if n == 0 {
		return &Query{ID: id, Arrival: arrival, pool: p}
	}
	q := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*q = Query{ID: id, Arrival: arrival, Work: q.Work, Records: q.Records[:0], pool: p}
	return q
}

// Release hands a completed query back to the pool it came from; nobody may
// touch it, its Records or its Work afterwards. On a query from New it does
// nothing. stage.System calls it once the last completion callback returned.
func (q *Query) Release() {
	if q.pool == nil {
		return
	}
	if q.free {
		panic(fmt.Sprintf("query: %d released twice", q.ID))
	}
	q.free = true
	q.pool.free = append(q.pool.free, q)
}

// Clone returns a copy of the query that shares no storage with it and
// belongs to no pool: what a completion callback keeps past its return.
func (q *Query) Clone() *Query {
	c := *q
	c.pool, c.free = nil, false
	c.Records = append([]Record(nil), q.Records...)
	flat := make([]time.Duration, 0, entries(q.Work))
	c.Work = make([][]time.Duration, len(q.Work))
	for i, row := range q.Work {
		flat = append(flat, row...)
		c.Work[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	return &c
}

// Latency returns the end-to-end response latency; valid after completion.
func (q *Query) Latency() time.Duration { return q.Done - q.Arrival }

// Completed reports whether the query has left the pipeline.
func (q *Query) Completed() bool { return q.Done > 0 }

// WorkAt returns the service demand of stage s, branch i. Branch indexes
// beyond the drawn work wrap around, so a stage can serve the query on any
// instance (instance boosting clones use the same demand distribution).
func (q *Query) WorkAt(s, i int) time.Duration {
	if s < 0 || s >= len(q.Work) {
		panic(fmt.Sprintf("query: stage %d out of range (have %d stages)", s, len(q.Work)))
	}
	branches := q.Work[s]
	if len(branches) == 0 {
		panic(fmt.Sprintf("query: stage %d has no work drawn", s))
	}
	return branches[i%len(branches)]
}

// Append adds a latency record to the query. It is called by the instance
// that just finished serving the query (the joint design).
func (q *Query) Append(r Record) { q.Records = append(q.Records, r) }

// SetPending initializes the outstanding-branch counter for a fan-out stage.
func (q *Query) SetPending(n int) { q.pending = n }

// BranchDone decrements the outstanding-branch counter and reports whether
// the stage is now complete.
func (q *Query) BranchDone() bool {
	if q.pending <= 0 {
		panic("query: BranchDone without pending branches")
	}
	q.pending--
	return q.pending == 0
}
