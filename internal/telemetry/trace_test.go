package telemetry

import (
	"sync"
	"testing"
	"time"

	"powerchief/internal/query"
)

// pipelineQuery builds a completed 2-stage query with contiguous records, so
// spans partition [arrival, done].
func pipelineQuery(id query.ID) *query.Query {
	q := query.New(id, 1*time.Second, [][]time.Duration{{0}, {0}})
	q.Append(query.Record{
		Query: id, Stage: "ASR", Instance: "ASR_0",
		QueueEnter: 1 * time.Second, ServeStart: 1100 * time.Millisecond,
		ServeEnd: 1400 * time.Millisecond, Level: 2,
	})
	q.Append(query.Record{
		Query: id, Stage: "QA", Instance: "QA_1",
		QueueEnter: 1400 * time.Millisecond, ServeStart: 1600 * time.Millisecond,
		ServeEnd: 2 * time.Second, Level: 5, Boosted: true,
	})
	q.Done = 2 * time.Second
	return q
}

func TestBuildTraceSpansSumToLatency(t *testing.T) {
	q := pipelineQuery(42)
	tr := BuildTrace(q, 0)
	if tr.ID != 42 || tr.Arrival != time.Second || tr.Done != 2*time.Second {
		t.Fatalf("header mismatch: %+v", tr)
	}
	if tr.Latency != time.Second {
		t.Fatalf("Latency = %v, want 1s", tr.Latency)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(tr.Spans))
	}
	if tr.SpanTotal() != tr.Latency {
		t.Fatalf("span total %v != latency %v", tr.SpanTotal(), tr.Latency)
	}
	// Order: ASR queue, ASR serve, QA queue, QA serve.
	wantKinds := []SpanKind{SpanQueue, SpanServe, SpanQueue, SpanServe}
	wantInst := []string{"ASR_0", "ASR_0", "QA_1", "QA_1"}
	for i, s := range tr.Spans {
		if s.Kind != wantKinds[i] || s.Instance != wantInst[i] {
			t.Errorf("span %d = %s@%s, want %s@%s", i, s.Kind, s.Instance, wantKinds[i], wantInst[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d inverted: %v..%v", i, s.Start, s.End)
		}
	}
	// DVFS state rides along.
	if tr.Spans[1].Level != 2 || tr.Spans[1].Boosted {
		t.Errorf("ASR serve span level/boost = %d/%v, want 2/false", tr.Spans[1].Level, tr.Spans[1].Boosted)
	}
	if tr.Spans[3].Level != 5 || !tr.Spans[3].Boosted {
		t.Errorf("QA serve span level/boost = %d/%v, want 5/true", tr.Spans[3].Level, tr.Spans[3].Boosted)
	}
}

func TestBuildTraceDepthTruncation(t *testing.T) {
	q := pipelineQuery(1)
	tr := BuildTrace(q, 1)
	if !tr.Truncated {
		t.Fatal("trace not flagged truncated")
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 (one record)", len(tr.Spans))
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tr.ObserveQuery(pipelineQuery(1)) // must not panic
	if tr.Traces() != nil {
		t.Fatal("nil tracer retained something")
	}
	seen, kept, dropped := tr.Stats()
	if seen+kept+dropped != 0 {
		t.Fatal("nil tracer stats not zero")
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(TracerOptions{Sample: 3, Capacity: 100})
	for i := 1; i <= 10; i++ {
		tr.ObserveQuery(pipelineQuery(query.ID(i)))
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("kept %d traces, want 3 (every 3rd of 10)", len(traces))
	}
	wantIDs := []query.ID{3, 6, 9}
	for i, got := range traces {
		if got.ID != wantIDs[i] {
			t.Errorf("trace %d ID = %d, want %d", i, got.ID, wantIDs[i])
		}
	}
	seen, kept, dropped := tr.Stats()
	if seen != 10 || kept != 3 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 10/3/0", seen, kept, dropped)
	}
}

func TestTracerDisabledBySampleZero(t *testing.T) {
	tr := NewTracer(TracerOptions{Sample: 0})
	if tr.Enabled() {
		t.Fatal("Sample=0 tracer enabled")
	}
	tr.ObserveQuery(pipelineQuery(1))
	if len(tr.Traces()) != 0 {
		t.Fatal("disabled tracer retained a trace")
	}
	seen, _, _ := tr.Stats()
	if seen != 0 {
		t.Fatal("disabled tracer counted offers")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(TracerOptions{Sample: 1, Capacity: 4})
	for i := 1; i <= 10; i++ {
		tr.ObserveQuery(pipelineQuery(query.ID(i)))
	}
	traces := tr.Traces()
	if len(traces) != 4 {
		t.Fatalf("len = %d, want 4", len(traces))
	}
	for i, got := range traces {
		if want := query.ID(7 + i); got.ID != want {
			t.Errorf("trace %d ID = %d, want %d", i, got.ID, want)
		}
	}
	_, kept, dropped := tr.Stats()
	if kept != 10 || dropped != 6 {
		t.Fatalf("kept/dropped = %d/%d, want 10/6", kept, dropped)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerOptions{Sample: 1, Capacity: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.ObserveQuery(pipelineQuery(query.ID(w*50 + i)))
				_ = tr.Traces()
			}
		}(w)
	}
	wg.Wait()
	seen, kept, _ := tr.Stats()
	if seen != 400 || kept != 400 {
		t.Fatalf("seen/kept = %d/%d, want 400/400", seen, kept)
	}
}
