package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/query"
)

// TestAggregatorConcurrentStress drives the aggregator the way the
// live and distributed engines do: completion callbacks fire from many
// goroutines at once — some touching disjoint instance sets, some colliding
// on shared instances — while a controller goroutine polls InstStats,
// WindowLatency, and WindowTail throughout. Meaningful under -race; the
// closing assertions check no completion was lost or double-counted.
func TestAggregatorConcurrentStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts AggregatorOptions
	}{
		{"exact", AggregatorOptions{Window: WindowExact}},
		{"bucketed", AggregatorOptions{Window: WindowBucketed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clk atomic.Int64
			agg := NewAggregatorOptions(30*time.Second, func() time.Duration {
				return time.Duration(clk.Add(int64(time.Microsecond)))
			}, tc.opts)

			const workers, perWorker = 8, 300
			var wg, ctrl sync.WaitGroup
			stop := make(chan struct{})

			// Controller goroutine: concurrent reads against the writers.
			// Yields between polls so it cannot starve the writers on a
			// single-CPU race-detector run.
			ctrl.Add(1)
			go func() {
				defer ctrl.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					agg.InstStats("SHARED_0")
					agg.InstStats(fmt.Sprintf("OWN_%d", int(agg.Ingested())%workers))
					agg.WindowLatency()
					agg.WindowTail(0.99)
					agg.Ingested()
					runtime.Gosched()
				}
			}()

			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					own := fmt.Sprintf("OWN_%d", w)         // disjoint: this worker only
					shared := fmt.Sprintf("SHARED_%d", w%2) // overlapping: four workers each
					for i := 0; i < perWorker; i++ {
						at := time.Duration(clk.Add(int64(time.Millisecond)))
						id := query.ID(w<<20 | i)
						q := query.New(id, at-2*time.Second, nil)
						q.Append(query.Record{
							Query: id, Stage: "OWN", Instance: own,
							QueueEnter: at - 2*time.Second,
							ServeStart: at - 1500*time.Millisecond,
							ServeEnd:   at - time.Second,
						})
						q.Append(query.Record{
							Query: id, Stage: "SHARED", Instance: shared,
							QueueEnter: at - time.Second,
							ServeStart: at - 700*time.Millisecond,
							ServeEnd:   at,
						})
						q.Done = at
						agg.Ingest(q)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			ctrl.Wait()

			if got, want := agg.Ingested(), uint64(workers*perWorker); got != want {
				t.Fatalf("Ingested = %d, want %d", got, want)
			}
			// Every record landed: queuing 500ms, serving 500ms on the
			// disjoint instances; queuing 300ms, serving 700ms on the shared.
			for w := 0; w < workers; w++ {
				q, s, ok := agg.InstStats(fmt.Sprintf("OWN_%d", w))
				if !ok {
					t.Fatalf("no stats for OWN_%d", w)
				}
				if q != 500*time.Millisecond || s != 500*time.Millisecond {
					t.Errorf("OWN_%d stats = %v,%v; want 500ms,500ms", w, q, s)
				}
			}
			for s := 0; s < 2; s++ {
				qv, sv, ok := agg.InstStats(fmt.Sprintf("SHARED_%d", s))
				if !ok {
					t.Fatalf("no stats for SHARED_%d", s)
				}
				if qv != 300*time.Millisecond || sv != 700*time.Millisecond {
					t.Errorf("SHARED_%d stats = %v,%v; want 300ms,700ms", s, qv, sv)
				}
			}
			if m, ok := agg.WindowLatency(); !ok || m != 2*time.Second {
				t.Errorf("WindowLatency = %v,%v; want 2s", m, ok)
			}
		})
	}
}

// TestAggregatorOptionsDefaults pins that the zero options reproduce the
// exact-window behavior and the bucketed option swaps implementations.
func TestAggregatorOptionsDefaults(t *testing.T) {
	clk := &fakeClock{now: 10 * time.Second}
	for _, tc := range []struct {
		name string
		opts AggregatorOptions
	}{
		{"exact", AggregatorOptions{}},
		{"bucketed", AggregatorOptions{Window: WindowBucketed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agg := NewAggregatorOptions(25*time.Second, clk.Now, tc.opts)
			agg.Ingest(completedQuery(1, 9*time.Second, 10*time.Second,
				query.Record{Query: 1, Stage: "QA", Instance: "QA_1",
					QueueEnter: 0, ServeStart: 100 * time.Millisecond, ServeEnd: 400 * time.Millisecond},
			))
			q, s, ok := agg.InstStats("QA_1")
			if !ok || q != 100*time.Millisecond || s != 300*time.Millisecond {
				t.Errorf("InstStats = %v,%v,%v; want 100ms,300ms,true", q, s, ok)
			}
			if m, ok := agg.WindowLatency(); !ok || m != time.Second {
				t.Errorf("WindowLatency = %v,%v; want 1s", m, ok)
			}
			if p, ok := agg.WindowTail(0.99); !ok || p > 1100*time.Millisecond || p < 700*time.Millisecond {
				t.Errorf("WindowTail = %v,%v; want ~1s", p, ok)
			}
		})
	}
}

// TestAggregatorSlottedConcurrentIngest races slotted and unslotted ingest:
// workers fold the same instances, half of them by slot and half by name,
// while a churn goroutine forgets one of those instances over and over and a
// reader polls InstStats. Meaningful under -race (make race covers this
// package). Afterwards no record is lost or counted twice: Records equals
// what the workers fed, forgotten instances included.
func TestAggregatorSlottedConcurrentIngest(t *testing.T) {
	for _, kind := range []WindowKind{WindowExact, WindowBucketed} {
		var clk atomic.Int64
		agg := NewAggregatorOptions(time.Second, func() time.Duration {
			return time.Duration(clk.Add(int64(time.Microsecond)))
		}, AggregatorOptions{Window: kind})
		names := [...]string{"A_1", "B_1", "CHURN_1"}
		const workers, perWorker = 6, 400
		fed := make([]query.Tally, workers)
		var wg, bg sync.WaitGroup
		stop := make(chan struct{})
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				agg.Forget("CHURN_1")
				for _, n := range names {
					agg.InstStats(n)
				}
				runtime.Gosched()
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					at := time.Duration(clk.Load())
					id := query.ID(w<<20 | i)
					q := query.New(id, at-time.Second, nil)
					for s, n := range names {
						slot := uint32(s + 1)
						if w%2 == 1 {
							slot = 0
						}
						queuing, serving := time.Duration(i%7+1)*time.Millisecond, time.Duration(w+1)*time.Millisecond
						q.Append(query.Record{Query: id, Instance: n, Slot: slot,
							QueueEnter: at - queuing - serving, ServeStart: at - serving, ServeEnd: at})
						fed[w].Add(queuing, serving)
					}
					q.Done = at
					agg.Ingest(q)
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		bg.Wait()
		var want query.Tally
		for _, f := range fed {
			want.Merge(f)
		}
		if got := agg.Records(); got != want {
			t.Errorf("window kind %d: Records = %v, fed %v", kind, got, want)
		}
		if got := agg.Ingested(); got != workers*perWorker {
			t.Errorf("window kind %d: Ingested = %d, want %d", kind, got, workers*perWorker)
		}
	}
}
