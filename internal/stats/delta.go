package stats

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DeltaVersion is the current version of the Delta wire frame. Decoders
// accept any frame whose version is at most this; producers always stamp it,
// so a future incompatible change can be detected instead of silently
// misfolded.
const DeltaVersion = 1

// BinGrowth is the growth factor of the shared log-spaced latency-bin layout
// used by BucketWindow and by every delta digest. Digests built with this
// factor fold into bucketed windows exactly: bin indexes align one-to-one, so
// merging is integer addition of counts, not resampling.
const BinGrowth = binGrowth

// NewBinHistogram builds a histogram on the shared BucketWindow bin layout —
// the histogram every DeltaAccumulator folds into, so its digests merge
// exactly into bucketed windows.
func NewBinHistogram() *Histogram { return NewHistogram(binGrowth) }

// InstDelta is one instance's share of a Delta: the queuing and serving time
// distributions of every completion folded since the last flush, as exact
// digests (count, sum, min/max and sparse bins on the shared layout).
type InstDelta struct {
	Instance string `json:"instance"`
	Stage    string `json:"stage,omitempty"`

	Queuing *HistogramDigest `json:"queuing,omitempty"`
	Serving *HistogramDigest `json:"serving,omitempty"`
}

// Delta is one batched statistics commit: everything an ingest source folded
// locally since its previous flush, in a form that merges exactly into the
// aggregator's windows. It replaces shipping one record per completion —
// the batch is a few digests no matter how many completions it summarizes.
//
// Seq increases by one per flush from one accumulator, so a receiver can
// detect lost batches (a killed source's unflushed tail) by sequence gaps.
// FirstNS/LastNS bracket the local virtual times of the folded completions:
// the receiver folds the whole batch at its own clock, so LastNS only serves
// staleness accounting, never cross-machine time math.
type Delta struct {
	V   int    `json:"v"`
	Seq uint64 `json:"seq"`

	// Queries counts the completed queries summarized by this delta.
	Queries uint64 `json:"queries,omitempty"`

	FirstNS int64 `json:"first_ns,omitempty"`
	LastNS  int64 `json:"last_ns,omitempty"`

	// E2E is the end-to-end latency digest, when the source observes full
	// query latencies (fleet nodes do; stage services leave it nil — the
	// Command Center measures end-to-end latency itself).
	E2E *HistogramDigest `json:"e2e,omitempty"`

	Insts []InstDelta `json:"insts,omitempty"`
}

// Records counts the per-instance records summarized by the delta (each
// completion contributes one record per instance it visited).
func (d *Delta) Records() uint64 {
	var n uint64
	for i := range d.Insts {
		if q := d.Insts[i].Queuing; q != nil {
			n += q.Count
		}
	}
	return n
}

// Empty reports whether the delta summarizes nothing.
func (d *Delta) Empty() bool {
	return d == nil || (d.Queries == 0 && len(d.Insts) == 0 && (d.E2E == nil || d.E2E.Count == 0))
}

// Validate checks the frame version and digest shapes before a fold.
func (d *Delta) Validate() error {
	if d == nil {
		return fmt.Errorf("stats: nil delta")
	}
	if d.V > DeltaVersion {
		return fmt.Errorf("stats: delta version %d newer than supported %d", d.V, DeltaVersion)
	}
	check := func(h *HistogramDigest) error {
		if h == nil {
			return nil
		}
		if h.Growth != binGrowth {
			return fmt.Errorf("stats: delta digest growth %v, shared layout needs %v", h.Growth, binGrowth)
		}
		for _, b := range h.Bins {
			if b.Index < 0 || b.Index >= len(binBounds) {
				return fmt.Errorf("stats: delta bin index %d outside the %d-bin layout", b.Index, len(binBounds))
			}
		}
		return nil
	}
	if err := check(d.E2E); err != nil {
		return err
	}
	for i := range d.Insts {
		if err := check(d.Insts[i].Queuing); err != nil {
			return err
		}
		if err := check(d.Insts[i].Serving); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds other into d (exact: digest bins add). Seq and the time
// bracket widen to cover both; the merged delta keeps d's version.
func (d *Delta) Merge(other *Delta) error {
	if other.Empty() {
		return nil
	}
	if err := other.Validate(); err != nil {
		return err
	}
	d.Queries += other.Queries
	if d.FirstNS == 0 || (other.FirstNS != 0 && other.FirstNS < d.FirstNS) {
		d.FirstNS = other.FirstNS
	}
	if other.LastNS > d.LastNS {
		d.LastNS = other.LastNS
	}
	if other.Seq > d.Seq {
		d.Seq = other.Seq
	}
	var err error
	if d.E2E, err = mergeDigests(d.E2E, other.E2E); err != nil {
		return err
	}
	byInst := make(map[string]int, len(d.Insts))
	for i := range d.Insts {
		byInst[d.Insts[i].Instance] = i
	}
	for i := range other.Insts {
		oi := &other.Insts[i]
		j, ok := byInst[oi.Instance]
		if !ok {
			d.Insts = append(d.Insts, *oi)
			continue
		}
		di := &d.Insts[j]
		if di.Queuing, err = mergeDigests(di.Queuing, oi.Queuing); err != nil {
			return err
		}
		if di.Serving, err = mergeDigests(di.Serving, oi.Serving); err != nil {
			return err
		}
	}
	return nil
}

// mergeDigests merges two digests on the shared layout (either may be nil).
func mergeDigests(a, b *HistogramDigest) (*HistogramDigest, error) {
	if b == nil || b.Count == 0 {
		return a, nil
	}
	if a == nil || a.Count == 0 {
		return b, nil
	}
	ha, err := FromDigest(a)
	if err != nil {
		return nil, err
	}
	hb, err := FromDigest(b)
	if err != nil {
		return nil, err
	}
	if err := ha.Merge(hb); err != nil {
		return nil, err
	}
	return ha.Digest(), nil
}

// DefaultDeltaBatch is the flush threshold NewDeltaAccumulator applies when
// the caller passes zero: flush after this many completed queries.
const DefaultDeltaBatch = 256

// DefaultDeltaInterval is the flush interval applied when the caller passes
// zero: an unflushed batch older than this is due, whatever its size, so
// trickle traffic cannot hold statistics back indefinitely.
const DefaultDeltaInterval = 100 * time.Millisecond

// DeltaAccumulator folds completions into a pending Delta locally and
// decides when the batch should be committed: after Batch completed queries
// or Interval of virtual time since the first unflushed fold, whichever
// comes first — the thresholded net-commit idiom. It is safe for concurrent
// use; fold timestamps are clamped to the accumulator's monotone floor, so
// racing completion goroutines cannot drive its clock backwards.
type DeltaAccumulator struct {
	mu       sync.Mutex
	batch    int
	interval time.Duration

	seq uint64 // flushes so far: each one takes the next number

	// Pending (unflushed) state.
	queries uint64
	first   time.Duration // time of the first unflushed fold
	last    time.Duration // monotone floor
	started bool
	e2e     *Histogram
	insts   map[string]*instAcc
}

type instAcc struct {
	stage            string
	queuing, serving *Histogram
}

// NewDeltaAccumulator creates an accumulator flushing every batch completed
// queries or every interval, whichever comes first (zeros apply
// DefaultDeltaBatch / DefaultDeltaInterval).
func NewDeltaAccumulator(batch int, interval time.Duration) *DeltaAccumulator {
	a := &DeltaAccumulator{insts: make(map[string]*instAcc)}
	a.Resize(batch, interval)
	return a
}

// Resize sets the flush thresholds (zeros apply the defaults); the pending
// batch and the sequence number carry over.
func (a *DeltaAccumulator) Resize(batch int, interval time.Duration) {
	if batch <= 0 {
		batch = DefaultDeltaBatch
	}
	if interval <= 0 {
		interval = DefaultDeltaInterval
	}
	a.mu.Lock()
	a.batch, a.interval = batch, interval
	a.mu.Unlock()
}

// Sizes returns the flush thresholds: completed queries and interval.
func (a *DeltaAccumulator) Sizes() (batch int, interval time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.batch, a.interval
}

// clampLocked clamps at to the accumulator's monotone floor and marks the
// first fold of the pending batch. Caller holds a.mu.
func (a *DeltaAccumulator) clampLocked(at time.Duration) time.Duration {
	if at < a.last {
		at = a.last
	} else {
		a.last = at
	}
	if !a.started {
		a.started = true
		a.first = at
	}
	return at
}

// FoldRecord folds one per-instance latency record observed at local virtual
// time at. Negative durations clamp to zero inside the histograms.
func (a *DeltaAccumulator) FoldRecord(at time.Duration, instance, stage string, queuing, serving time.Duration) {
	a.mu.Lock()
	a.clampLocked(at)
	ia := a.insts[instance]
	if ia == nil {
		ia = &instAcc{stage: stage, queuing: NewBinHistogram(), serving: NewBinHistogram()}
		a.insts[instance] = ia
	}
	ia.queuing.Observe(queuing)
	ia.serving.Observe(serving)
	a.mu.Unlock()
}

// FoldCompletion counts one completed query at local virtual time at without
// an end-to-end observation (the stage-service shape: the Command Center
// measures end-to-end latency itself).
func (a *DeltaAccumulator) FoldCompletion(at time.Duration) {
	a.mu.Lock()
	a.clampLocked(at)
	a.queries++
	a.mu.Unlock()
}

// FoldQuery counts one completed query and its end-to-end latency (the fleet
// node shape).
func (a *DeltaAccumulator) FoldQuery(at, latency time.Duration) {
	a.mu.Lock()
	a.clampLocked(at)
	if a.e2e == nil {
		a.e2e = NewBinHistogram()
	}
	a.e2e.Observe(latency)
	a.queries++
	a.mu.Unlock()
}

// Due reports whether the pending batch should be flushed as of now: the
// query threshold is reached, or the first unflushed fold is older than the
// interval.
func (a *DeltaAccumulator) Due(now time.Duration) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dueLocked(now)
}

func (a *DeltaAccumulator) dueLocked(now time.Duration) bool {
	if a.emptyLocked() {
		return false
	}
	if a.queries >= uint64(a.batch) {
		return true
	}
	return now-a.first >= a.interval
}

func (a *DeltaAccumulator) emptyLocked() bool {
	return a.queries == 0 && len(a.insts) == 0 && (a.e2e == nil || a.e2e.Count() == 0)
}

// FlushIfDue flushes and returns the pending batch when it is due as of now,
// nil otherwise.
func (a *DeltaAccumulator) FlushIfDue(now time.Duration) *Delta {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.dueLocked(now) {
		return nil
	}
	return a.flushLocked()
}

// Flush unconditionally flushes the pending batch, returning nil when there
// is nothing to commit. Receivers driving a periodic pull (the control
// interval's stats refresh) use this as the staleness backstop.
func (a *DeltaAccumulator) Flush(time.Duration) *Delta {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.emptyLocked() {
		return nil
	}
	return a.flushLocked()
}

// flushLocked builds the delta, advances the sequence number and resets the
// pending state. Caller holds a.mu.
func (a *DeltaAccumulator) flushLocked() *Delta {
	a.seq++
	d := &Delta{
		V:       DeltaVersion,
		Seq:     a.seq,
		Queries: a.queries,
		FirstNS: int64(a.first),
		LastNS:  int64(a.last),
	}
	if a.e2e != nil && a.e2e.Count() > 0 {
		d.E2E = a.e2e.Digest()
	}
	if len(a.insts) > 0 {
		names := make([]string, 0, len(a.insts))
		for name := range a.insts {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic frame layout
		d.Insts = make([]InstDelta, 0, len(names))
		for _, name := range names {
			ia := a.insts[name]
			d.Insts = append(d.Insts, InstDelta{
				Instance: name,
				Stage:    ia.stage,
				Queuing:  ia.queuing.Digest(),
				Serving:  ia.serving.Digest(),
			})
		}
	}
	a.queries = 0
	a.started = false
	a.e2e = nil
	a.insts = make(map[string]*instAcc)
	return d
}

// Pending returns the unflushed query and record counts.
func (a *DeltaAccumulator) Pending() (queries, records uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ia := range a.insts {
		records += ia.queuing.Count()
	}
	return a.queries, records
}

// Flushes returns the lifetime number of flushed deltas.
func (a *DeltaAccumulator) Flushes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// DeltaReceiver books the Deltas a process folds, per source (dist.Center per
// stage, fleet.Coordinator per node). Concurrent folds deliver one source's
// frames in any order, so it counts lost flushes, not discontinuities: the
// span of sequence numbers seen minus the frames folded, read on demand (a
// frame in flight reads as lost until it lands). The zero value is ready;
// it is safe for concurrent use.
type DeltaReceiver struct {
	mu              sync.Mutex
	deltas, queries uint64
	lost            uint64 // by spans Rearm has closed
	spans           map[string]seqSpan
}

// seqSpan is one source's sequence numbers since it was (re)armed.
type seqSpan struct{ min, max, folded uint64 }

// lost saturates: a duplicate number must not wrap the count.
func (s seqSpan) lost() uint64 { return max(s.max-s.min+1, s.folded) - s.folded }

// Note books one non-empty frame received from source. A frame the caller
// could not fold (malformed, wrong layout) widens the span without counting:
// its statistics are gone, which reads as one lost flush.
func (r *DeltaReceiver) Note(source string, d *Delta, folded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, seen := r.spans[source]
	if !seen {
		sp.min = d.Seq
	}
	sp.min, sp.max = min(sp.min, d.Seq), max(sp.max, d.Seq)
	if folded {
		sp.folded++
		r.deltas++
		r.queries += d.Queries
	}
	if r.spans == nil {
		r.spans = make(map[string]seqSpan)
	}
	r.spans[source] = sp
}

// Rearm closes source's span, keeping what it lost; the next frame starts a
// new one. Call it when the peer behind source may be a new process, whose
// accumulator numbers from 1 again (re-admission, a fenced report).
func (r *DeltaReceiver) Rearm(source string) {
	r.mu.Lock()
	if sp, seen := r.spans[source]; seen {
		r.lost += sp.lost()
		delete(r.spans, source)
	}
	r.mu.Unlock()
}

// Counts returns frames folded, completed queries they summarized, and
// flushes lost (each at most one flush window of statistics).
func (r *DeltaReceiver) Counts() (deltas, queries, lost uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lost = r.lost
	for _, sp := range r.spans {
		lost += sp.lost()
	}
	return r.deltas, r.queries, lost
}

// AddDigest folds a whole digest on the shared bin layout into the window at
// virtual time at: every summarized sample lands in the bucket containing
// at, with exact count, sum, min/max, overflow and per-bin membership — so a
// batch of N samples costs O(bins) instead of N Adds, and the window's mean
// and interpolated quantiles equal those of per-sample Adds at the same
// timestamp. The digest must share the BucketWindow layout (growth
// BinGrowth); foreign layouts are rejected.
func (w *BucketWindow) AddDigest(at time.Duration, d *HistogramDigest) error {
	if d == nil || d.Count == 0 {
		return nil
	}
	if d.Growth != binGrowth {
		return fmt.Errorf("stats: digest growth %v cannot fold into the shared %v layout", d.Growth, binGrowth)
	}
	at = w.advance(at)
	b := &w.ring[(at/w.width)%time.Duration(len(w.ring))]
	min, max := time.Duration(d.MinNS), time.Duration(d.MaxNS)
	if b.count == 0 || min < b.min {
		b.min = min
	}
	if max > b.max {
		b.max = max
	}
	b.count += d.Count
	b.sum += time.Duration(d.SumNS)
	b.overflow += uint32(d.Overflow)
	for _, bin := range d.Bins {
		if bin.Index < 0 || bin.Index >= len(b.bins) {
			return fmt.Errorf("stats: digest bin index %d outside the %d-bin layout", bin.Index, len(b.bins))
		}
		b.bins[bin.Index] += uint32(bin.Count)
	}
	w.count += d.Count
	w.sum += time.Duration(d.SumNS)
	return nil
}

// FoldDigest folds a digest into a bucketed window at virtual time at. A
// digest is bins on the shared layout, which only a BucketWindow keeps: any
// other window kind is refused, never approximated and never skipped.
func FoldDigest(w MovingWindow, at time.Duration, d *HistogramDigest) error {
	bw, ok := w.(*BucketWindow)
	if !ok {
		return fmt.Errorf("stats: a digest folds only into a *BucketWindow (the shared bin layout), not a %T", w)
	}
	return bw.AddDigest(at, d)
}

// FoldDigest folds a digest into the stripe selected by hint, with the same
// monotone clamp Add applies.
func (s *Striped) FoldDigest(hint uint64, at time.Duration, d *HistogramDigest) error {
	st := &s.stripes[hint%uint64(len(s.stripes))]
	st.mu.Lock()
	defer st.mu.Unlock()
	st.last = max(st.last, at)
	return FoldDigest(st.w, st.last, d)
}
