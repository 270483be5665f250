package stage

import (
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
)

// recycler drives a system the way workload.Generator does — every arrival a
// query out of one pool, taken back by System.advance — and checks each
// completion: the query completes once, at the expected latency, carrying
// exactly its own records. storage counts completions per *Query, which the
// test keeps for identity only.
type recycler struct {
	t       *testing.T
	eng     *sim.Engine
	sys     *System
	pool    query.Pool
	done    map[query.ID]time.Duration // completed queries and their latency
	storage map[*query.Query]int
}

func newRecycler(t *testing.T, eng *sim.Engine, sys *System, records int) *recycler {
	r := &recycler{t: t, eng: eng, sys: sys, done: make(map[query.ID]time.Duration), storage: make(map[*query.Query]int)}
	sys.OnComplete(func(q *query.Query) {
		if _, twice := r.done[q.ID]; twice {
			t.Errorf("query %d completed twice", q.ID)
		}
		r.done[q.ID] = q.Latency()
		r.storage[q]++
		if q.Done != eng.Now() {
			t.Errorf("query %d: Done = %v at %v", q.ID, q.Done, eng.Now())
		}
		if len(q.Records) != records {
			t.Errorf("query %d carries %d records, want %d", q.ID, len(q.Records), records)
		}
		for _, rec := range q.Records {
			if rec.Query != q.ID {
				t.Errorf("query %d carries a record of query %d", q.ID, rec.Query)
			}
			if rec.QueueEnter < q.Arrival {
				t.Errorf("query %d (arrived %v) carries a record from %v: a previous life's", q.ID, q.Arrival, rec.QueueEnter)
			}
			if err := rec.Validate(); err != nil {
				t.Error(err)
			}
		}
	})
	return r
}

// arrive schedules a pooled query with the given per-stage work rows.
func (r *recycler) arrive(id query.ID, at time.Duration, work ...[]time.Duration) {
	r.eng.ScheduleAt(at, func() {
		q := r.pool.Get(id, at)
		q.SetWork(work)
		r.sys.Submit(q)
	})
}

// finish runs the engine dry and checks that all n queries completed, on
// fewer than n pieces of storage.
func (r *recycler) finish(n int) {
	r.t.Helper()
	r.eng.Run()
	if len(r.done) != n || r.sys.Completed() != uint64(n) || !r.sys.Drain() {
		r.t.Fatalf("%d of %d queries completed (system: %d, in flight %d)", len(r.done), n, r.sys.Completed(), r.sys.InFlight())
	}
	if len(r.storage) >= n {
		r.t.Errorf("%d queries used %d pieces of storage: nothing was recycled", n, len(r.storage))
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestReleaseFollowsTheLastCallback: the query goes back to its pool after
// the last completion callback returned, whenever that callback was
// registered — one added while queries are in flight still reads intact
// records, and no callback ever finds the query already handed out again.
func TestReleaseFollowsTheLastCallback(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat), oneStage("B", 1, flat))
	r := newRecycler(t, eng, sys, 2)
	var inCallback *query.Query
	stillOurs := func(who string) func(*query.Query) {
		return func(q *query.Query) {
			inCallback = q
			if len(q.Records) != 2 || q.Records[0].Stage != "A" || q.Records[1].Stage != "B" || q.Records[1].Query != q.ID {
				t.Errorf("%s callback: query %d records %+v", who, q.ID, q.Records)
			}
			if id := q.ID; r.pool.Get(1000+id, 0) == q {
				t.Fatalf("%s callback: query %d was released before the callbacks were through", who, id)
			}
		}
	}
	sys.OnComplete(stillOurs("early"))
	r.arrive(1, time.Second, []time.Duration{ms(100)}, []time.Duration{ms(50)})
	r.arrive(2, time.Second+ms(10), []time.Duration{ms(100)}, []time.Duration{ms(50)})
	eng.RunUntil(time.Second + ms(20))
	if sys.InFlight() != 2 {
		t.Fatalf("%d queries in flight, want 2", sys.InFlight())
	}
	sys.OnComplete(stillOurs("late"))
	eng.Run()
	if len(r.done) != 2 {
		t.Fatalf("%d of 2 queries completed", len(r.done))
	}
	// Released exactly once, after all of them: the last completed query is
	// the next one out of the pool.
	if got := r.pool.Get(3, 0); got != inCallback {
		t.Error("the completed query was not released after its last callback")
	}
}

// TestRecycledQueriesThroughFanOut: a query that fanned out comes back from
// the pool with no branch outstanding and fans out again.
func TestRecycledQueriesThroughFanOut(t *testing.T) {
	eng := sim.NewEngine()
	chip := cmp.NewChip(16, cmp.DefaultModel(), 200)
	sys, err := NewSystem(eng, chip, []Spec{
		{Name: "leaf", Kind: FanOut, Profile: flat, Instances: 3, Level: cmp.MidLevel},
		{Name: "agg", Kind: Pipeline, Profile: flat, Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := newRecycler(t, eng, sys, 4)
	// Arrivals every 40ms against a 75ms latency: two in flight at a time,
	// each new one taking over the storage of the one before the last.
	const n = 12
	for i := 0; i < n; i++ {
		r.arrive(query.ID(i+1), time.Second+time.Duration(i)*ms(40),
			[]time.Duration{ms(10), ms(70), ms(30)}, []time.Duration{ms(5)})
	}
	r.finish(n)
	if r.done[1] != ms(75) {
		t.Errorf("first query's latency = %v, want 75ms (slowest branch + aggregation)", r.done[1])
	}
}

// TestRecycledQueriesAcrossHopDelay: a query between two stages is held only
// by its hop event; storage released meanwhile by others does not touch it.
func TestRecycledQueriesAcrossHopDelay(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 2, flat), oneStage("B", 2, flat))
	sys.SetHopDelay(func(from, to int) time.Duration { return ms(25) })
	r := newRecycler(t, eng, sys, 2)
	// Every 60ms, 175ms each: one query in its hop, one in A, one in B while
	// a fourth completes and is taken by the next arrival.
	const n = 20
	for i := 0; i < n; i++ {
		r.arrive(query.ID(i+1), time.Second+time.Duration(i)*ms(60), []time.Duration{ms(100)}, []time.Duration{ms(50)})
	}
	r.finish(n)
	for id, lat := range r.done {
		if lat != ms(175) {
			t.Errorf("query %d: latency %v, want 175ms (100 + 25 hop + 50)", id, lat)
		}
	}
}

// TestRecycledQueriesSurviveCloneAndWithdraw: Clone's steal and Withdraw's
// redirect move queued recycled queries between instances; each still
// completes exactly once with its own single record, and the storage of the
// finished ones keeps feeding the arrivals behind them.
func TestRecycledQueriesSurviveCloneAndWithdraw(t *testing.T) {
	eng, sys := newSys(t, oneStage("A", 1, flat))
	st := sys.Stage("A")
	src := st.Instances()[0]
	r := newRecycler(t, eng, sys, 1)
	// A burst of 8 at t=1s (one in service, seven queued), then a trickle
	// that arrives while the burst drains and reuses what it completed.
	const n = 20
	for i := 0; i < 8; i++ {
		r.arrive(query.ID(i+1), time.Second, []time.Duration{ms(100)})
	}
	for i := 8; i < n; i++ {
		r.arrive(query.ID(i+1), time.Second+time.Duration(i-7)*ms(90), []time.Duration{ms(100)})
	}
	var clone *Instance
	eng.ScheduleAt(time.Second+ms(50), func() {
		var err error
		if clone, err = st.Clone(src); err != nil {
			t.Fatal(err)
		}
		if clone.QueueLen() != 3 || src.QueueLen() != 5 {
			t.Fatalf("after the steal: clone %d, source %d, want 3 and 5", clone.QueueLen(), src.QueueLen())
		}
	})
	eng.ScheduleAt(time.Second+ms(420), func() {
		if clone.waiting() == 0 {
			t.Fatal("the clone has nothing queued to redirect")
		}
		if err := st.Withdraw(clone, src); err != nil {
			t.Fatal(err)
		}
	})
	r.finish(n)
	if !clone.Retired() {
		t.Error("the withdrawn clone never retired")
	}
}
