package core

import (
	"sync"
	"sync/atomic"
	"time"

	"powerchief/internal/query"
	"powerchief/internal/stats"
)

// WindowKind selects the moving-window implementation behind the
// aggregator's statistics.
type WindowKind int

const (
	// WindowExact keeps every sample: exact, deterministic means and
	// percentiles — the paper-reproduction default for the DES engine.
	// Memory grows with the window population.
	WindowExact WindowKind = iota
	// WindowBucketed uses the constant-memory time-bucketed ring: O(1)
	// add/evict, fixed footprint per instance regardless of load, quantiles
	// within the latency-bin growth error. The live and distributed
	// engines use it so unbounded runs hold constant memory.
	WindowBucketed
)

// AggregatorOptions tunes the statistics pipeline's sharding and windowing.
// The zero value reproduces the deterministic exact-window behavior.
type AggregatorOptions struct {
	// Window selects the moving-window implementation.
	Window WindowKind
	// Stripes is the lock-stripe count of the end-to-end latency window
	// (0 applies the stats.Striped default). Striping changes only the
	// synchronization structure: merged statistics equal a single window
	// fed the same samples, so the DES engine's outputs are unaffected.
	Stripes int
	// Buckets is the per-window bucket count for WindowBucketed (0 applies
	// stats.DefaultBuckets).
	Buckets int
}

// Aggregator is the statistics half of the Command Center. Completed queries
// arrive carrying the latency records every instance appended on the way
// (the service/query joint design, §4.1); the aggregator folds them into
// per-instance moving windows of queuing and serving time, plus an
// end-to-end latency window for the QoS policies. All statistics are
// computed from instance-local timestamps, so no clock synchronization
// between machines is assumed.
//
// Aggregator is safe for concurrent use and sharded for it: every instance
// owns its own windows behind its own lock, the end-to-end window is lock-
// striped by query ID, and the lifetime fallback counters are atomics —
// so completions for different instances never contend, and controller
// reads (InstStats, WindowLatency) merge on read instead of freezing the
// ingest path behind one global mutex.
type Aggregator struct {
	window time.Duration
	now    func() time.Duration
	opts   AggregatorOptions

	ingested atomic.Uint64

	// perInst maps instance name → *instShard. A sync.Map because the key
	// set is small and stable after warm-up: lookups on the ingest hot path
	// are lock-free loads, with no read-lock cache line bouncing between
	// completing instances.
	perInst sync.Map

	e2e *stats.Striped
}

// instShard holds one instance's windowed and lifetime statistics behind
// the instance's own lock. The lifetime means serve as fallback when a
// window goes empty — e.g. a fully saturated bottleneck that has not
// completed a query in the current window still needs a serving-time
// estimate for Equations 2 and 3. They are atomics so Ingest updates them
// without holding the window lock and readers never block on them.
type instShard struct {
	mu      sync.Mutex
	last    time.Duration // monotone floor: completion clocks race the lock
	queuing stats.MovingWindow
	serving stats.MovingWindow

	lifeCount   atomic.Uint64
	lifeQueuing atomic.Int64 // nanoseconds
	lifeServing atomic.Int64 // nanoseconds
}

// NewAggregator creates an aggregator with the given moving-window span,
// reading time from now (the simulation clock or wall clock). It uses exact
// windows — the deterministic configuration the experiment harness depends
// on; use NewAggregatorOptions for the constant-memory bucketed windows.
func NewAggregator(window time.Duration, now func() time.Duration) *Aggregator {
	return NewAggregatorOptions(window, now, AggregatorOptions{})
}

// NewAggregatorOptions creates an aggregator with explicit sharding and
// windowing options.
func NewAggregatorOptions(window time.Duration, now func() time.Duration, opts AggregatorOptions) *Aggregator {
	if window <= 0 {
		panic("core: aggregator window must be positive")
	}
	if now == nil {
		panic("core: aggregator needs a clock")
	}
	a := &Aggregator{
		window: window,
		now:    now,
		opts:   opts,
	}
	a.e2e = stats.NewStriped(opts.Stripes, a.newWindow)
	return a
}

// newWindow builds one moving window of the configured kind.
func (a *Aggregator) newWindow() stats.MovingWindow {
	if a.opts.Window == WindowBucketed {
		return stats.NewBucketWindow(a.window, a.opts.Buckets)
	}
	return stats.NewWindow(a.window)
}

// shard returns the named instance's shard, creating it on first sight.
func (a *Aggregator) shard(name string) *instShard {
	if v, ok := a.perInst.Load(name); ok {
		return v.(*instShard)
	}
	v, _ := a.perInst.LoadOrStore(name, &instShard{
		queuing: a.newWindow(),
		serving: a.newWindow(),
	})
	return v.(*instShard)
}

// Ingest folds a completed query's records into the statistics. It is the
// OnComplete callback of the service system, called concurrently from the
// completing instances' goroutines in the live and distributed engines;
// only records for the same instance contend with each other. Timestamps
// are clamped per shard: goroutines read the clock before reaching a shard
// lock, so slight reordering must not poison the windows.
func (a *Aggregator) Ingest(q *query.Query) {
	now := a.now()
	a.ingested.Add(1)
	for i := range q.Records {
		r := &q.Records[i]
		queuing, serving := r.Queuing(), r.Serving()
		is := a.shard(r.Instance)
		is.mu.Lock()
		at := now
		if at < is.last {
			at = is.last
		} else {
			is.last = at
		}
		is.queuing.Add(at, queuing)
		is.serving.Add(at, serving)
		is.mu.Unlock()
		is.lifeCount.Add(1)
		is.lifeQueuing.Add(int64(queuing))
		is.lifeServing.Add(int64(serving))
	}
	a.e2e.Add(uint64(q.ID), now, q.Latency())
}

// Ingested returns the number of completed queries folded in.
func (a *Aggregator) Ingested() uint64 { return a.ingested.Load() }

// InstStats returns the moving-window mean queuing and serving time of the
// named instance. When the window is empty the lifetime means are used; an
// instance never seen reports zeros with ok=false.
func (a *Aggregator) InstStats(name string) (queuing, serving time.Duration, ok bool) {
	v, found := a.perInst.Load(name)
	if !found {
		return 0, 0, false
	}
	is := v.(*instShard)
	now := a.now()
	is.mu.Lock()
	if now < is.last {
		now = is.last
	} else {
		is.last = now
	}
	is.queuing.Advance(now)
	is.serving.Advance(now)
	if q, has := is.queuing.Mean(); has {
		s, _ := is.serving.Mean()
		is.mu.Unlock()
		return q, s, true
	}
	is.mu.Unlock()
	n := is.lifeCount.Load()
	if n == 0 {
		return 0, 0, false
	}
	d := time.Duration(n)
	return time.Duration(is.lifeQueuing.Load()) / d, time.Duration(is.lifeServing.Load()) / d, true
}

// WindowLatency returns the moving-window mean end-to-end latency, used by
// the QoS power-conservation policies to judge slack against the target.
// The mean merges the lock stripes on read: total sum over total count,
// exactly what the former single-window aggregator reported.
func (a *Aggregator) WindowLatency() (time.Duration, bool) {
	return a.e2e.Mean(a.now())
}

// WindowTail returns the moving-window p-quantile end-to-end latency: the
// one-element case of WindowTails.
func (a *Aggregator) WindowTail(p float64) (time.Duration, bool) {
	return a.e2e.Percentile(a.now(), p)
}

// WindowTails implements StatsReader: the stripes are merged once for the
// whole grid (exact windows rank the union of samples; bucketed windows
// merge their latency bins).
func (a *Aggregator) WindowTails(ps []float64, out []time.Duration) bool {
	return a.e2e.Percentiles(a.now(), ps, out)
}

// Forget removes a withdrawn instance's statistics so stale history cannot
// skew future rankings if the name is reused.
func (a *Aggregator) Forget(name string) {
	a.perInst.Delete(name)
}
