package core

import (
	"sync"
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

// AggregatorOptions tunes the statistics pipeline's windowing. The zero
// value reproduces the deterministic exact-window behavior.
type AggregatorOptions struct {
	// Window selects the moving-window implementation.
	Window WindowKind
}

// Aggregator is the statistics half of the Command Center. Completed queries
// arrive carrying the latency records every instance appended on the way
// (the service/query joint design, §4.1); the aggregator folds them into one
// moving window of (queuing, serving) pairs per instance, plus an end-to-end
// latency window for the QoS policies. All statistics are computed from
// instance-local timestamps, so no clock synchronization between machines is
// assumed.
//
// Aggregator is safe for concurrent use behind one mutex: a query's Ingest
// folds all its records and its end-to-end latency under one lock, and the
// clock is read inside it, so no window sees time run backwards.
//
// A record finds its instance by name. A record that carries a slot
// (query.Record.Slot: the DES engine numbers its instances) finds it through
// a slot-indexed table instead, without hashing the name. The table only
// caches the name lookup: an entry counts only while it names the record's
// instance, and Forget clears the entries of what it drops, so either way a
// record lands with the same statistics.
type Aggregator struct {
	window time.Duration
	now    func() time.Duration
	kind   WindowKind

	mu        sync.Mutex
	last      time.Duration // the latest clock reading
	perInst   map[string]*instStats
	slots     []*instStats // perInst by record slot; entry 0 stays nil
	e2e       stats.MovingWindow
	forgotten query.Tally // the lifetime tallies of the instances Forget dropped
	ingested  uint64
}

// pairWindow is the per-instance moving window of (queuing, serving) pairs:
// stats.PairWindow or stats.PairBucketWindow.
type pairWindow interface {
	Add(at, queuing, serving time.Duration)
	Advance(now time.Duration)
	Means() (queuing, serving time.Duration, ok bool)
}

// instStats holds one instance's windowed and lifetime statistics. The
// lifetime means serve as fallback when the window goes empty — e.g. a fully
// saturated bottleneck that has not completed a query in the current window
// still needs a serving-time estimate for Equations 2 and 3.
type instStats struct {
	name string
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

// NewAggregatorOptions creates an aggregator with explicit windowing
// options.
func NewAggregatorOptions(window time.Duration, now func() time.Duration, opts AggregatorOptions) *Aggregator {
	if window <= 0 {
		panic("core: aggregator window must be positive")
	}
	if now == nil {
		panic("core: aggregator needs a clock")
	}
	a := &Aggregator{
		window:  window,
		now:     now,
		kind:    opts.Window,
		perInst: make(map[string]*instStats),
	}
	if a.kind == WindowBucketed {
		a.e2e = stats.NewBucketWindow(window, 0)
	} else {
		a.e2e = stats.NewWindow(window)
	}
	return a
}

// clock reads the clock, clamped to the latest reading so a clock that
// steps backwards cannot reach the exact windows, which refuse it. Caller
// holds a.mu.
func (a *Aggregator) clock() time.Duration {
	a.last = max(a.last, a.now())
	return a.last
}

// find returns instance name's statistics, nil when none are kept. A
// nonzero slot is tried first. Caller holds a.mu.
func (a *Aggregator) find(name string, slot uint32) *instStats {
	if int(slot) < len(a.slots) {
		if is := a.slots[slot]; is != nil && is.name == name {
			return is
		}
	}
	return a.perInst[name]
}

// fold returns the statistics a record of instance name carrying slot folds
// into, starting them on the name's first record, and points a nonzero
// slot's entry at them when it does not already. Caller holds a.mu.
func (a *Aggregator) fold(name string, slot uint32) *instStats {
	is := a.find(name, slot)
	if is == nil {
		is = &instStats{name: name}
		if a.kind == WindowBucketed {
			is.win = stats.NewPairBucketWindow(a.window, 0)
		} else {
			is.win = stats.NewPairWindow(a.window)
		}
		a.perInst[name] = is
	}
	if slot != 0 && (int(slot) >= len(a.slots) || a.slots[slot] != is) {
		if n := int(slot) + 1; n > len(a.slots) {
			a.slots = append(a.slots, make([]*instStats, n-len(a.slots))...)
		}
		a.slots[slot] = is
	}
	return is
}

// Ingest folds a completed query's records into the statistics. It is the
// OnComplete callback of the service system, called concurrently from the
// completing instances' goroutines in the live and distributed engines.
func (a *Aggregator) Ingest(q *query.Query) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock()
	a.ingested++
	for i := range q.Records {
		r := &q.Records[i]
		queuing, serving := r.Queuing(), r.Serving()
		is := a.fold(r.Instance, r.Slot)
		is.win.Add(now, queuing, serving)
		is.life.Add(queuing, serving)
	}
	a.e2e.Add(now, q.Latency())
}

// Ingested returns the number of completed queries folded in.
func (a *Aggregator) Ingested() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ingested
}

// Records tallies every per-instance record folded in, by Ingest and
// IngestDelta, forgotten instances included: what the engine feeding the
// aggregator emitted (stage.System.Emitted), once ingest has quiesced.
func (a *Aggregator) Records() query.Tally {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.forgotten
	for _, is := range a.perInst {
		t.Merge(is.life)
	}
	return t
}

// InstStats returns the moving-window mean queuing and serving time of the
// named instance. When the window is empty the lifetime means are used; an
// instance never seen reports zeros with ok=false.
func (a *Aggregator) InstStats(name string) (queuing, serving time.Duration, ok bool) {
	return a.instStats(name, 0)
}

// instStats is InstStats for an instance whose records carry slot: the slot
// table finds its statistics without hashing the name.
func (a *Aggregator) instStats(name string, slot uint32) (queuing, serving time.Duration, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	is := a.find(name, slot)
	if is == nil {
		return 0, 0, false
	}
	is.win.Advance(a.clock())
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
func (a *Aggregator) WindowLatency() (time.Duration, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.e2e.Advance(a.clock())
	return a.e2e.Mean()
}

// WindowTail returns the moving-window p-quantile end-to-end latency: the
// one-element case of WindowTails.
func (a *Aggregator) WindowTail(p float64) (time.Duration, bool) {
	var out [1]time.Duration
	ok := a.WindowTails([]float64{p}, out[:])
	return out[0], ok
}

// WindowTails implements StatsReader: the window is read once for the whole
// grid (an exact window ranks its samples; a bucketed one merges its latency
// bins).
func (a *Aggregator) WindowTails(ps []float64, out []time.Duration) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.e2e.Advance(a.clock())
	// Called on the concrete window, the grid and out stay on the caller's
	// stack.
	if w, ok := a.e2e.(*stats.Window); ok {
		return w.Percentiles(ps, out)
	}
	return a.e2e.(*stats.BucketWindow).Percentiles(ps, out)
}

// Forget removes a withdrawn instance's statistics so stale history cannot
// skew future rankings if the name is reused. Its records still count in
// Records; a later record for the name starts fresh statistics.
func (a *Aggregator) Forget(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	is := a.perInst[name]
	if is == nil {
		return
	}
	delete(a.perInst, name)
	a.forgotten.Merge(is.life)
	for i, s := range a.slots {
		if s == is {
			a.slots[i] = nil
		}
	}
}
