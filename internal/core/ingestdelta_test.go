package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"powerchief/internal/query"
	"powerchief/internal/stats"
)

// TestIngestDeltaMatchesPerRecordIngest proves the delta path feeds Eq.
// 1/2/3 the same numbers as per-record ingest: two bucketed aggregators, one
// fed records, one fed the batched delta, report identical InstStats means,
// window latency and ingested counts.
func TestIngestDeltaMatchesPerRecordIngest(t *testing.T) {
	clock := time.Duration(0)
	now := func() time.Duration { return clock }
	opts := AggregatorOptions{Window: WindowBucketed}
	perRecord := NewAggregatorOptions(10*time.Second, now, opts)
	batched := NewAggregatorOptions(10*time.Second, now, opts)

	rng := rand.New(rand.NewSource(11))
	acc := stats.NewDeltaAccumulator(1<<20, time.Hour)
	const n = 2000
	clock = 2 * time.Second
	for i := 0; i < n; i++ {
		q := &query.Query{ID: query.ID(i), Arrival: 0, Done: clock}
		enter := time.Duration(i) * time.Millisecond
		qd := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		sd := time.Duration(rng.Int63n(int64(8 * time.Millisecond)))
		inst := "web-0"
		if i%4 == 0 {
			inst = "web-1"
		}
		q.Records = append(q.Records, query.Record{
			Query: query.ID(i), Stage: "web", Instance: inst,
			QueueEnter: enter, ServeStart: enter + qd, ServeEnd: enter + qd + sd,
		})
		perRecord.Ingest(q)

		acc.FoldRecord(enter, inst, "web", qd, sd)
		acc.FoldQuery(enter, q.Latency())
	}
	d := acc.Flush(clock)
	if err := batched.IngestDelta(d); err != nil {
		t.Fatalf("IngestDelta: %v", err)
	}

	if perRecord.Ingested() != batched.Ingested() {
		t.Fatalf("ingested: per-record %d, batched %d", perRecord.Ingested(), batched.Ingested())
	}
	for _, inst := range []string{"web-0", "web-1"} {
		q1, s1, ok1 := perRecord.InstStats(inst)
		q2, s2, ok2 := batched.InstStats(inst)
		if !ok1 || !ok2 {
			t.Fatalf("InstStats(%q): ok %v vs %v", inst, ok1, ok2)
		}
		if q1 != q2 || s1 != s2 {
			t.Fatalf("InstStats(%q): per-record (%v, %v), batched (%v, %v)", inst, q1, s1, q2, s2)
		}
	}
	// The e2e samples all carry the same latency timestamp displacement
	// (both sides fold at the same clock reading), so the means agree.
	l1, ok1 := perRecord.WindowLatency()
	l2, ok2 := batched.WindowLatency()
	if !ok1 || !ok2 || l1 != l2 {
		t.Fatalf("WindowLatency: per-record (%v, %v), batched (%v, %v)", l1, ok1, l2, ok2)
	}
	p1, _ := perRecord.WindowTail(0.99)
	p2, _ := batched.WindowTail(0.99)
	if p1 != p2 {
		t.Fatalf("WindowTail(0.99): per-record %v, batched %v", p1, p2)
	}
}

// TestIngestDeltaLifetimeFallback proves a delta-fed instance keeps its
// lifetime-mean fallback after the window empties — saturated bottlenecks
// still get Eq. 2/3 serving estimates.
func TestIngestDeltaLifetimeFallback(t *testing.T) {
	clock := time.Duration(0)
	a := NewAggregatorOptions(time.Second, func() time.Duration { return clock }, AggregatorOptions{Window: WindowBucketed})

	acc := stats.NewDeltaAccumulator(10, time.Hour)
	acc.FoldRecord(0, "db-0", "db", 4*time.Millisecond, 8*time.Millisecond)
	acc.FoldRecord(0, "db-0", "db", 2*time.Millisecond, 4*time.Millisecond)
	if err := a.IngestDelta(acc.Flush(0)); err != nil {
		t.Fatal(err)
	}

	// Let the window expire; the lifetime fallback must survive.
	clock = time.Minute
	q, s, ok := a.InstStats("db-0")
	if !ok {
		t.Fatal("InstStats must fall back to lifetime means")
	}
	if q != 3*time.Millisecond || s != 6*time.Millisecond {
		t.Fatalf("lifetime fallback = (%v, %v), want (3ms, 6ms)", q, s)
	}
}

// TestIngestDeltaRejectsBadFrames: version and layout checks happen before
// any state changes.
func TestIngestDeltaRejectsBadFrames(t *testing.T) {
	a := NewAggregatorOptions(time.Second, func() time.Duration { return 0 }, AggregatorOptions{Window: WindowBucketed})
	if err := a.IngestDelta(&stats.Delta{V: stats.DeltaVersion + 1, Queries: 1}); err == nil {
		t.Fatal("newer frame version must be rejected")
	}
	if a.Ingested() != 0 {
		t.Fatal("rejected frame must not count as ingested")
	}
	if err := a.IngestDelta(&stats.Delta{V: stats.DeltaVersion}); err != nil {
		t.Fatalf("empty delta must be a no-op, got %v", err)
	}

	// Exact windows keep samples, not bins: the delta is refused with the
	// layout requirement named, and nothing of it is folded.
	exact := NewAggregator(time.Minute, func() time.Duration { return 0 })
	acc := stats.NewDeltaAccumulator(10, time.Hour)
	acc.FoldRecord(0, "web-0", "web", time.Millisecond, 2*time.Millisecond)
	acc.FoldCompletion(0)
	err := exact.IngestDelta(acc.Flush(0))
	if err == nil || !strings.Contains(err.Error(), "BucketWindow") {
		t.Fatalf("delta into exact windows: err = %v, want one naming the BucketWindow layout", err)
	}
	if _, _, ok := exact.InstStats("web-0"); ok || exact.Ingested() != 0 {
		t.Fatal("refused delta left statistics behind")
	}
}
