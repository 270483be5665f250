package core

import (
	"math/rand"
	"testing"
	"time"

	"powerchief/internal/query"
	"powerchief/internal/stats"
)

// fakeClock is a settable time source for aggregator tests.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration { return f.now }

func completedQuery(id query.ID, arrival, done time.Duration, recs ...query.Record) *query.Query {
	q := query.New(id, arrival, nil)
	for _, r := range recs {
		q.Append(r)
	}
	q.Done = done
	return q
}

func TestAggregatorPerInstanceStats(t *testing.T) {
	clk := &fakeClock{}
	agg := NewAggregator(25*time.Second, clk.Now)

	clk.now = 10 * time.Second
	agg.Ingest(completedQuery(1, 9*time.Second, 10*time.Second,
		query.Record{Query: 1, Stage: "QA", Instance: "QA_1", QueueEnter: 0, ServeStart: 100 * time.Millisecond, ServeEnd: 400 * time.Millisecond},
	))
	agg.Ingest(completedQuery(2, 9*time.Second, 10*time.Second,
		query.Record{Query: 2, Stage: "QA", Instance: "QA_1", QueueEnter: 0, ServeStart: 300 * time.Millisecond, ServeEnd: 800 * time.Millisecond},
	))
	q, s, ok := agg.InstStats("QA_1")
	if !ok {
		t.Fatal("stats missing for QA_1")
	}
	if q != 200*time.Millisecond {
		t.Errorf("mean queuing = %v, want 200ms", q)
	}
	if s != 400*time.Millisecond {
		t.Errorf("mean serving = %v, want 400ms", s)
	}
	if agg.Ingested() != 2 {
		t.Errorf("Ingested = %d", agg.Ingested())
	}
}

func TestAggregatorUnknownInstance(t *testing.T) {
	agg := NewAggregator(time.Second, (&fakeClock{}).Now)
	if _, _, ok := agg.InstStats("ghost"); ok {
		t.Error("unknown instance reported stats")
	}
}

func TestAggregatorLifetimeFallback(t *testing.T) {
	clk := &fakeClock{}
	agg := NewAggregator(25*time.Second, clk.Now)
	clk.now = 10 * time.Second
	agg.Ingest(completedQuery(1, 9*time.Second, 10*time.Second,
		query.Record{Query: 1, Stage: "QA", Instance: "QA_1", QueueEnter: 0, ServeStart: time.Second, ServeEnd: 2 * time.Second},
	))
	// Window drains after 25s with no new completions (a saturated
	// bottleneck): lifetime means must still be served.
	clk.now = 100 * time.Second
	q, s, ok := agg.InstStats("QA_1")
	if !ok {
		t.Fatal("fallback stats missing")
	}
	if q != time.Second || s != time.Second {
		t.Errorf("fallback q/s = %v/%v, want 1s/1s", q, s)
	}
}

func TestAggregatorWindowEviction(t *testing.T) {
	clk := &fakeClock{}
	agg := NewAggregator(10*time.Second, clk.Now)
	clk.now = time.Second
	agg.Ingest(completedQuery(1, 0, time.Second,
		query.Record{Instance: "A_1", QueueEnter: 0, ServeStart: 0, ServeEnd: 100 * time.Millisecond},
	))
	clk.now = 20 * time.Second
	agg.Ingest(completedQuery(2, 19*time.Second, 20*time.Second,
		query.Record{Instance: "A_1", QueueEnter: 0, ServeStart: 0, ServeEnd: 300 * time.Millisecond},
	))
	// The first record fell out of the 10s window: the mean reflects only
	// the second.
	_, s, _ := agg.InstStats("A_1")
	if s != 300*time.Millisecond {
		t.Errorf("windowed serving = %v, want 300ms", s)
	}
}

func TestAggregatorEndToEndLatency(t *testing.T) {
	clk := &fakeClock{}
	agg := NewAggregator(25*time.Second, clk.Now)
	if _, ok := agg.WindowLatency(); ok {
		t.Error("empty aggregator reported latency")
	}
	clk.now = 5 * time.Second
	agg.Ingest(completedQuery(1, 4*time.Second, 5*time.Second))
	agg.Ingest(completedQuery(2, 2*time.Second, 5*time.Second))
	lat, ok := agg.WindowLatency()
	if !ok || lat != 2*time.Second {
		t.Errorf("WindowLatency = %v,%v; want 2s", lat, ok)
	}
	tail, ok := agg.WindowTail(0.99)
	if !ok || tail != 3*time.Second {
		t.Errorf("WindowTail = %v,%v; want 3s", tail, ok)
	}
}

// TestAggregatorClampsBackwardsClock: a clock that steps backwards between
// ingests is clamped to its latest reading instead of panicking the exact
// end-to-end window, and every sample still counts.
func TestAggregatorClampsBackwardsClock(t *testing.T) {
	for _, kind := range []WindowKind{WindowExact, WindowBucketed} {
		clk := &fakeClock{}
		agg := NewAggregatorOptions(time.Minute, clk.Now, AggregatorOptions{Window: kind})
		for i, at := range []time.Duration{5 * time.Second, 3 * time.Second, time.Second} {
			clk.now = at
			agg.Ingest(completedQuery(query.ID(i), at-time.Millisecond, at,
				query.Record{Instance: "A_1", ServeStart: 0, ServeEnd: time.Millisecond}))
		}
		if lat, ok := agg.WindowLatency(); !ok || lat != time.Millisecond {
			t.Errorf("window kind %d: WindowLatency = %v,%v; want 1ms", kind, lat, ok)
		}
		if got := agg.Records().Records; got != 3 || agg.Ingested() != 3 {
			t.Errorf("window kind %d: %d records, %d queries; want 3, 3", kind, got, agg.Ingested())
		}
	}
}

func TestAggregatorForget(t *testing.T) {
	clk := &fakeClock{}
	agg := NewAggregator(time.Minute, clk.Now)
	agg.Ingest(completedQuery(1, 0, 0,
		query.Record{Instance: "A_1", ServeEnd: time.Millisecond},
	))
	agg.Forget("A_1")
	if _, _, ok := agg.InstStats("A_1"); ok {
		t.Error("forgotten instance still has stats")
	}
}

func TestNewAggregatorValidates(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero window": func() { NewAggregator(0, (&fakeClock{}).Now) },
		"nil clock":   func() { NewAggregator(time.Second, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSlotPathMatchesNameLookup drives two aggregators with one seeded
// sequence: one gets the records as the DES emits them, slots and all, the
// other the same records with every slot cleared, so it finds each instance
// by name alone. The sequence mixes slotted and unslotted records, Forgets,
// late records from a forgotten instance's old slot, a name relaunched under
// a new slot, slots that name another instance, and InstStats reads. Every
// read must be bit-equal between the two, and so must the record tallies:
// the slot table only caches the name lookup.
func TestSlotPathMatchesNameLookup(t *testing.T) {
	names := []string{"A_1", "A_2", "B_1", "B_2", "C_1"}
	for _, kind := range []WindowKind{WindowExact, WindowBucketed} {
		for seed := int64(1); seed <= 25; seed++ {
			clk := &fakeClock{}
			opts := AggregatorOptions{Window: kind}
			slotted := NewAggregatorOptions(2*time.Second, clk.Now, opts)
			named := NewAggregatorOptions(2*time.Second, clk.Now, opts)
			rng := rand.New(rand.NewSource(seed))
			slotOf := map[string]uint32{}
			oldSlots := map[string][]uint32{}
			next := uint32(1)
			for _, n := range names {
				slotOf[n], next = next, next+1
			}
			compare := func(name string) {
				q1, s1, ok1 := slotted.InstStats(name)
				q2, s2, ok2 := named.InstStats(name)
				if q1 != q2 || s1 != s2 || ok1 != ok2 {
					t.Fatalf("%v seed %d at %v: InstStats(%s) slotted (%v, %v, %v), by name (%v, %v, %v)",
						kind, seed, clk.now, name, q1, s1, ok1, q2, s2, ok2)
				}
			}
			for step := 0; step < 1500; step++ {
				clk.now += time.Duration(rng.Intn(40)) * time.Millisecond
				name := names[rng.Intn(len(names))]
				switch r := rng.Intn(100); {
				case r < 3:
					slotted.Forget(name)
					named.Forget(name)
					if rng.Intn(2) == 0 { // relaunched: the name comes back under a new slot
						oldSlots[name] = append(oldSlots[name], slotOf[name])
						slotOf[name], next = next, next+1
					}
				case r < 15:
					compare(name)
				default:
					id := query.ID(step)
					q := query.New(id, clk.now-time.Second, nil)
					for k := rng.Intn(3) + 1; k > 0; k-- {
						name := names[rng.Intn(len(names))]
						slot := slotOf[name]
						switch u := rng.Intn(20); {
						case u < 4:
							slot = 0 // the live and dist engines
						case u < 6 && len(oldSlots[name]) > 0:
							slot = oldSlots[name][rng.Intn(len(oldSlots[name]))] // a late record
						case u < 7:
							slot = uint32(rng.Intn(int(next)) + 1) // another instance's slot
						}
						wait := time.Duration(rng.Intn(300)) * time.Millisecond
						serve := time.Duration(rng.Intn(500)+1) * time.Millisecond
						q.Append(query.Record{Query: id, Instance: name, Slot: slot,
							QueueEnter: clk.now - wait - serve, ServeStart: clk.now - serve, ServeEnd: clk.now})
					}
					q.Done = clk.now
					slotted.Ingest(q)
					byName := q.Clone()
					for i := range byName.Records {
						byName.Records[i].Slot = 0
					}
					named.Ingest(byName)
				}
			}
			for _, n := range names {
				compare(n)
			}
			if r1, r2 := slotted.Records(), named.Records(); r1 != r2 {
				t.Fatalf("%v seed %d: Records slotted %v, by name %v", kind, seed, r1, r2)
			}
			l1, ok1 := slotted.WindowLatency()
			l2, ok2 := named.WindowLatency()
			if l1 != l2 || ok1 != ok2 {
				t.Fatalf("%v seed %d: WindowLatency slotted %v, by name %v", kind, seed, l1, l2)
			}
		}
	}
}

// TestRecordsCountForgottenInstances: Records tallies every record folded in,
// by Ingest and IngestDelta, including those of instances Forget dropped.
func TestRecordsCountForgottenInstances(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	agg := NewAggregatorOptions(time.Minute, clk.Now, AggregatorOptions{Window: WindowBucketed})
	agg.Ingest(completedQuery(1, 0, time.Second,
		query.Record{Instance: "A_1", Slot: 1, QueueEnter: 0, ServeStart: 2, ServeEnd: 5},
		query.Record{Instance: "B_1", QueueEnter: 0, ServeStart: 1, ServeEnd: 11},
	))
	agg.Forget("A_1")
	acc := stats.NewDeltaAccumulator(10, time.Hour)
	acc.FoldRecord(0, "B_1", "B", 4, 6)
	acc.FoldRecord(0, "C_1", "C", 1, 1)
	if err := agg.IngestDelta(acc.Flush(0)); err != nil {
		t.Fatal(err)
	}
	want := query.Tally{Records: 4, Queuing: 2 + 1 + 4 + 1, Serving: 3 + 10 + 6 + 1}
	if got := agg.Records(); got != want {
		t.Errorf("Records = %v, want %v", got, want)
	}
}
