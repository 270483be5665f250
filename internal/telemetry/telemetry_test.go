package telemetry

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestAuditLogNilSafe(t *testing.T) {
	var a *AuditLog
	if a.Enabled() {
		t.Fatal("nil log reports enabled")
	}
	a.Record(Event{Kind: EventIdentify}) // must not panic
	if got := a.Events(); got != nil {
		t.Fatalf("nil log Events = %v, want nil", got)
	}
	if a.LastSeq() != 0 || a.Dropped() != 0 {
		t.Fatal("nil log counters not zero")
	}
}

func TestAuditLogSequencesAndOrder(t *testing.T) {
	a := NewAuditLog(8)
	if !a.Enabled() {
		t.Fatal("new log not enabled")
	}
	kinds := []EventKind{EventIdentify, EventBoostFreq, EventRecycle}
	for i, k := range kinds {
		a.Record(Event{Kind: k, Time: time.Duration(i) * time.Second})
	}
	evs := a.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Kind != kinds[i] {
			t.Errorf("event %d Kind = %s, want %s", i, e.Kind, kinds[i])
		}
	}
	if a.LastSeq() != 3 {
		t.Errorf("LastSeq = %d, want 3", a.LastSeq())
	}
}

func TestAuditLogRingEviction(t *testing.T) {
	a := NewAuditLog(4)
	for i := 0; i < 10; i++ {
		a.Record(Event{Kind: EventBoostNone})
	}
	evs := a.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	// Oldest retained must be seq 7 (events 1..6 evicted).
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if a.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", a.Dropped())
	}
}

func TestAuditLogSinceCursor(t *testing.T) {
	a := NewAuditLog(16)
	for i := 0; i < 5; i++ {
		a.Record(Event{Kind: EventWithdraw})
	}
	got := a.Since(3)
	if len(got) != 2 {
		t.Fatalf("Since(3) len = %d, want 2", len(got))
	}
	if got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("Since(3) seqs = %d,%d want 4,5", got[0].Seq, got[1].Seq)
	}
	if len(a.Since(a.LastSeq())) != 0 {
		t.Fatal("Since(LastSeq) not empty")
	}
}

func TestAuditLogConcurrent(t *testing.T) {
	a := NewAuditLog(64)
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Record(Event{Kind: EventBoostFreq})
				_ = a.Since(0)
			}
		}()
	}
	wg.Wait()
	if a.LastSeq() != writers*per {
		t.Fatalf("LastSeq = %d, want %d", a.LastSeq(), writers*per)
	}
	if n := len(a.Events()); n != 64 {
		t.Fatalf("retained %d events, want 64", n)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	e := Event{
		Seq:            7,
		Time:           3 * time.Second,
		Kind:           EventRecycle,
		Stage:          "QA",
		Instance:       "QA_1",
		QueueLen:       12,
		Queuing:        40 * time.Millisecond,
		Serving:        15 * time.Millisecond,
		Metric:         495 * time.Millisecond,
		Spread:         100 * time.Millisecond,
		TInst:          80 * time.Millisecond,
		TFreq:          60 * time.Millisecond,
		OldLevel:       2,
		NewLevel:       5,
		RecycledWatts:  4.5,
		ReclaimedWatts: 10,
		HeadroomWatts:  2.25,
		Donors: []Donor{
			{Instance: "ASR_0", FromLevel: 3, ToLevel: 2, FreedWatts: 1.5},
		},
		Target: "QA_0",
		Detail: "note",
		Err:    "boom",
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != e.Kind || back.Stage != e.Stage || len(back.Donors) != 1 ||
		back.Donors[0] != e.Donors[0] || back.TInst != e.TInst || back.NewLevel != e.NewLevel {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestAuditDefaultCapacity(t *testing.T) {
	a := NewAuditLog(0)
	if len(a.ring) != DefaultAuditCapacity {
		t.Fatalf("capacity = %d, want %d", len(a.ring), DefaultAuditCapacity)
	}
}

// TestAuditLogStampsTheLastTick: an event with no tick of its own joins the
// last tick the log saw; one with a tick keeps it.
func TestAuditLogStampsTheLastTick(t *testing.T) {
	a := NewAuditLog(8)
	a.Record(Event{Kind: EventStageSuspect})
	a.Record(Event{Kind: EventIdentify, Tick: 3})
	a.Record(Event{Kind: EventStageQuarantine})
	a.Record(Event{Kind: EventIdentify, Tick: 4})
	var got []int
	for _, e := range a.Events() {
		got = append(got, e.Tick)
	}
	if want := []int{0, 3, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("ticks %v, want %v", got, want)
	}
}
