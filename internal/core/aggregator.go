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
// (the service/query joint design, §4.1); the aggregator folds them into one
// moving window of (queuing, serving) pairs per instance, plus an end-to-end
// latency window for the QoS policies. All statistics are computed from
// instance-local timestamps, so no clock synchronization between machines is
// assumed.
//
// Aggregator is safe for concurrent use and sharded for it: every instance
// owns its window and lifetime sums behind its own lock, and the end-to-end
// window is lock-striped by query ID, so completions for different
// instances never contend, and controller reads (InstStats, WindowLatency)
// merge on read instead of freezing the ingest path behind one global mutex.
//
// A record finds its instance by name, through a sync.Map. A record that
// carries a slot (query.Record.Slot: the DES engine numbers its instances)
// finds it through a slot-indexed table instead, without hashing the name.
// The table only caches the name lookup, so either way a record lands in the
// same shard.
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

	// slots caches perInst by record slot. It grows copy-on-write; an entry
	// is used only while it names the record's instance and its shard is
	// live, so a stale or lost entry costs a map lookup, never a misfiled
	// record.
	slots atomic.Pointer[[]atomic.Pointer[instShard]]

	mu        sync.Mutex
	forgotten query.Tally // the lifetime tallies of the shards Forget dropped

	e2e *stats.Striped
}

// pairWindow is the per-instance moving window of (queuing, serving) pairs:
// stats.PairWindow or stats.PairBucketWindow. Both clamp a timestamp that
// goes backwards to the latest one seen: goroutines read the clock before
// reaching the shard lock.
type pairWindow interface {
	Add(at, queuing, serving time.Duration)
	Advance(now time.Duration)
	Means() (queuing, serving time.Duration, ok bool)
}

// instShard holds one instance's windowed and lifetime statistics behind
// the instance's own lock. The lifetime means serve as fallback when the
// window goes empty — e.g. a fully saturated bottleneck that has not
// completed a query in the current window still needs a serving-time
// estimate for Equations 2 and 3.
type instShard struct {
	mu   sync.Mutex
	name string
	dead bool // dropped by Forget: folds go to the name's next shard
	win  pairWindow
	life query.Tally
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

// newWindow builds one end-to-end latency window of the configured kind.
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
	is := &instShard{name: name}
	if a.opts.Window == WindowBucketed {
		is.win = stats.NewPairBucketWindow(a.window, a.opts.Buckets)
	} else {
		is.win = stats.NewPairWindow(a.window)
	}
	v, _ := a.perInst.LoadOrStore(name, is)
	return v.(*instShard)
}

// lockShard returns the live shard of instance name, locked. slot, when not
// zero, is the record's slot: the table is tried first and refilled on a
// miss.
func (a *Aggregator) lockShard(name string, slot uint32) *instShard {
	is := a.cached(name, slot)
	for {
		if is == nil {
			is = a.shard(name)
			if slot != 0 {
				a.cache(slot, is)
			}
		}
		is.mu.Lock()
		if !is.dead {
			return is
		}
		// Forget dropped it after the lookup: the name's next shard takes
		// the fold, as if the lookup had come after the Forget.
		is.mu.Unlock()
		is = nil
	}
}

// cached returns the shard the slot table holds for slot, if it is name's.
func (a *Aggregator) cached(name string, slot uint32) *instShard {
	if t := a.slots.Load(); slot != 0 && t != nil && int(slot) < len(*t) {
		if is := (*t)[slot].Load(); is != nil && is.name == name {
			return is
		}
	}
	return nil
}

// cache points the table's slot entry at is, growing the table — a fresh
// copy swapped in whole — when the slot lies beyond it.
func (a *Aggregator) cache(slot uint32, is *instShard) {
	for {
		old := a.slots.Load()
		if old != nil && int(slot) < len(*old) {
			(*old)[slot].Store(is)
			return
		}
		n := 2*int(slot) + 1
		grown := make([]atomic.Pointer[instShard], n)
		if old != nil {
			for i := range *old {
				grown[i].Store((*old)[i].Load())
			}
		}
		grown[slot].Store(is)
		if a.slots.CompareAndSwap(old, &grown) {
			return
		}
	}
}

// Ingest folds a completed query's records into the statistics. It is the
// OnComplete callback of the service system, called concurrently from the
// completing instances' goroutines in the live and distributed engines;
// only records for the same instance contend with each other.
func (a *Aggregator) Ingest(q *query.Query) {
	now := a.now()
	a.ingested.Add(1)
	for i := range q.Records {
		r := &q.Records[i]
		queuing, serving := r.Queuing(), r.Serving()
		is := a.lockShard(r.Instance, r.Slot)
		is.win.Add(now, queuing, serving)
		is.life.Add(queuing, serving)
		is.mu.Unlock()
	}
	a.e2e.Add(uint64(q.ID), now, q.Latency())
}

// Ingested returns the number of completed queries folded in.
func (a *Aggregator) Ingested() uint64 { return a.ingested.Load() }

// Records tallies every per-instance record folded in, by Ingest and
// IngestDelta, forgotten instances included: what the engine feeding the
// aggregator emitted (stage.System.Emitted), once ingest has quiesced.
func (a *Aggregator) Records() query.Tally {
	var t query.Tally
	a.perInst.Range(func(_, v any) bool {
		is := v.(*instShard)
		is.mu.Lock()
		if !is.dead {
			t.Merge(is.life)
		}
		is.mu.Unlock()
		return true
	})
	a.mu.Lock()
	t.Merge(a.forgotten)
	a.mu.Unlock()
	return t
}

// InstStats returns the moving-window mean queuing and serving time of the
// named instance. When the window is empty the lifetime means are used; an
// instance never seen reports zeros with ok=false.
func (a *Aggregator) InstStats(name string) (queuing, serving time.Duration, ok bool) {
	return a.instStats(name, 0)
}

// instStats is InstStats for an instance whose records carry slot: the slot
// table finds its shard without hashing the name, and a miss, or a shard
// Forget dropped since, falls back to the name.
func (a *Aggregator) instStats(name string, slot uint32) (queuing, serving time.Duration, ok bool) {
	is := a.cached(name, slot)
	if is == nil {
		v, found := a.perInst.Load(name)
		if !found {
			return 0, 0, false
		}
		is = v.(*instShard)
	}
	now := a.now()
	is.mu.Lock()
	if is.dead && slot != 0 {
		is.mu.Unlock()
		return a.instStats(name, 0)
	}
	defer is.mu.Unlock()
	is.win.Advance(now)
	if q, s, has := is.win.Means(); has {
		return q, s, true
	}
	if is.life.Records == 0 {
		return 0, 0, false
	}
	n := time.Duration(is.life.Records)
	return is.life.Queuing / n, is.life.Serving / n, true
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
// skew future rankings if the name is reused. Its records still count in
// Records; a later record for the name starts a fresh shard.
func (a *Aggregator) Forget(name string) {
	v, ok := a.perInst.LoadAndDelete(name)
	if !ok {
		return
	}
	is := v.(*instShard)
	is.mu.Lock()
	is.dead = true
	life := is.life
	is.mu.Unlock()
	a.mu.Lock()
	a.forgotten.Merge(life)
	a.mu.Unlock()
}
