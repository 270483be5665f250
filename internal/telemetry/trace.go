package telemetry

import (
	"sort"
	"sync"
	"time"

	"powerchief/internal/query"
)

// SpanKind distinguishes the two phases of a record: waiting in an
// instance's queue versus being served by it.
type SpanKind string

const (
	// SpanQueue covers QueueEnter..ServeStart.
	SpanQueue SpanKind = "queue"
	// SpanServe covers ServeStart..ServeEnd.
	SpanServe SpanKind = "serve"
)

// Span is one phase of a query's visit to one instance, carrying the DVFS
// state the instance had while serving it.
type Span struct {
	Kind     SpanKind      `json:"kind"`
	Stage    string        `json:"stage"`
	Instance string        `json:"instance"`
	Start    time.Duration `json:"start"`
	End      time.Duration `json:"end"`
	// Level is the instance's frequency level at service time; Boosted marks
	// instances launched by an instance boost (clones). Queue spans copy the
	// serve-time values so a trace reads uniformly.
	Level   int  `json:"level"`
	Boosted bool `json:"boosted,omitempty"`
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// QueryTrace is one completed query materialized as an ordered span list:
// for each stage visited, a queue span followed by a serve span, in
// ascending start-time order. The spans partition [Arrival, Done] on the
// discrete-event engine, so their durations sum to Latency exactly; live and
// distributed engines add scheduling and RPC gaps between stages.
type QueryTrace struct {
	ID      query.ID      `json:"id"`
	Arrival time.Duration `json:"arrival"`
	Done    time.Duration `json:"done"`
	Latency time.Duration `json:"latency"`
	Spans   []Span        `json:"spans"`
	// Truncated reports that the query visited more instances than the
	// tracer's depth limit and the span list was cut.
	Truncated bool `json:"truncated,omitempty"`
}

// SpanTotal sums the retained span durations — equal to Latency on the
// simulator when the trace is not truncated.
func (t QueryTrace) SpanTotal() time.Duration {
	var sum time.Duration
	for _, s := range t.Spans {
		sum += s.Duration()
	}
	return sum
}

// TracerOptions tunes sampling and retention.
type TracerOptions struct {
	// Sample keeps every Nth completed query (1 = every query). Zero or
	// negative disables tracing. Sampling is a deterministic completion
	// counter, not a random draw, so simulator runs stay reproducible.
	Sample int
	// Capacity bounds the trace ring (0 applies DefaultTraceCapacity).
	Capacity int
	// Depth bounds the records materialized per query (0 applies
	// DefaultTraceDepth); deeper queries are truncated and flagged.
	Depth int
}

// DefaultTraceCapacity bounds the trace ring when unset.
const DefaultTraceCapacity = 512

// DefaultTraceDepth bounds per-query span records when unset.
const DefaultTraceDepth = 64

// Tracer samples completed queries into a bounded ring of span trees. A nil
// *Tracer is a valid disabled tracer: ObserveQuery is a no-op, so engine
// completion hooks can call it unconditionally.
type Tracer struct {
	opts TracerOptions

	mu      sync.Mutex
	seen    uint64 // completed queries offered
	kept    uint64 // traces sampled in
	ring    []QueryTrace
	start   int
	n       int
	dropped uint64 // sampled traces evicted by the ring
}

// NewTracer creates a tracer with the given options. Returns a tracer even
// when sampling is disabled so gauges can still read counts.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultTraceCapacity
	}
	if opts.Depth <= 0 {
		opts.Depth = DefaultTraceDepth
	}
	return &Tracer{opts: opts, ring: make([]QueryTrace, opts.Capacity)}
}

// Enabled reports whether the tracer can retain traces.
func (t *Tracer) Enabled() bool { return t != nil && t.opts.Sample > 0 }

// ObserveQuery offers a completed query to the sampler. Safe on a nil
// tracer and from concurrent completion callbacks.
func (t *Tracer) ObserveQuery(q *query.Query) {
	if t == nil || t.opts.Sample <= 0 || q == nil {
		return
	}
	t.mu.Lock()
	t.seen++
	if t.seen%uint64(t.opts.Sample) != 0 {
		t.mu.Unlock()
		return
	}
	tr := BuildTrace(q, t.opts.Depth)
	t.kept++
	if t.n < len(t.ring) {
		t.ring[(t.start+t.n)%len(t.ring)] = tr
		t.n++
	} else {
		t.ring[t.start] = tr
		t.start = (t.start + 1) % len(t.ring)
		t.dropped++
	}
	t.mu.Unlock()
}

// BuildTrace materializes one query's joint-design records into a span
// tree, truncating past depth records (0 = unlimited).
func BuildTrace(q *query.Query, depth int) QueryTrace {
	tr := QueryTrace{
		ID:      q.ID,
		Arrival: q.Arrival,
		Done:    q.Done,
		Latency: q.Done - q.Arrival,
	}
	recs := q.Records
	if depth > 0 && len(recs) > depth {
		recs = recs[:depth]
		tr.Truncated = true
	}
	tr.Spans = make([]Span, 0, 2*len(recs))
	for _, r := range recs {
		tr.Spans = append(tr.Spans,
			Span{Kind: SpanQueue, Stage: r.Stage, Instance: r.Instance,
				Start: r.QueueEnter, End: r.ServeStart, Level: r.Level, Boosted: r.Boosted},
			Span{Kind: SpanServe, Stage: r.Stage, Instance: r.Instance,
				Start: r.ServeStart, End: r.ServeEnd, Level: r.Level, Boosted: r.Boosted},
		)
	}
	sort.SliceStable(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start < tr.Spans[j].Start })
	return tr
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []QueryTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]QueryTrace, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.ring[(t.start+i)%len(t.ring)]
	}
	return out
}

// Stats reports the sampler's counters: queries offered, traces kept, and
// kept traces evicted by the ring.
func (t *Tracer) Stats() (seen, kept, dropped uint64) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen, t.kept, t.dropped
}
