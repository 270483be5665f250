package stats

import "time"

// pairSample is one latency record as a PairWindow keeps it: the time it was
// folded and its queuing and serving times.
type pairSample struct {
	at, queuing, serving time.Duration
}

// PairWindow is an exact moving window over (queuing, serving) pairs: the
// per-instance statistics of Eq. 1. Both halves of a record always enter and
// leave together, so one sample list with two running sums answers both
// means with one eviction per fold, where two Windows would evict twice and
// store the timestamp twice (24 B per record instead of 2 × 16 B).
//
// Eviction matches Window's: a walk over the expired prefix, which is
// compacted away only once it outweighs the live samples, and one truncation
// when everything expired. Its means therefore equal, bit for bit, those of
// two Windows fed the same records. Unlike Window, it clamps a timestamp
// that goes backwards to the latest one seen, as BucketWindow does.
type PairWindow struct {
	span    time.Duration
	samples []pairSample // live samples are samples[head:]
	head    int
	queuing time.Duration // Σ over the live samples
	serving time.Duration
	last    time.Duration
}

// NewPairWindow creates an exact paired window over span of virtual time.
func NewPairWindow(span time.Duration) *PairWindow {
	if span <= 0 {
		panic("stats: window span must be positive")
	}
	return &PairWindow{span: span}
}

// Add records one (queuing, serving) pair at virtual time at.
func (w *PairWindow) Add(at, queuing, serving time.Duration) {
	at = max(at, w.last)
	w.last = at
	w.samples = append(w.samples, pairSample{at: at, queuing: queuing, serving: serving})
	w.queuing += queuing
	w.serving += serving
	w.evict(at)
}

// Advance evicts the pairs that have fallen out of the window as of now.
func (w *PairWindow) Advance(now time.Duration) {
	now = max(now, w.last)
	w.last = now
	w.evict(now)
}

// evict drops the pairs older than the span relative to now.
func (w *PairWindow) evict(now time.Duration) {
	cutoff := now - w.span
	live := w.samples[w.head:]
	n := len(live)
	if n == 0 || live[0].at >= cutoff {
		return
	}
	if live[n-1].at < cutoff {
		w.samples, w.head = w.samples[:0], 0
		w.queuing, w.serving = 0, 0
		return
	}
	// Walk the expired prefix, which the sums must visit anyway: each pair
	// is passed over once in its life.
	i := 0
	for ; live[i].at < cutoff; i++ {
		w.queuing -= live[i].queuing
		w.serving -= live[i].serving
	}
	w.head += i
	if w.head > len(w.samples)/2 {
		m := copy(w.samples, w.samples[w.head:])
		w.samples, w.head = w.samples[:m], 0
	}
}

// Len returns the number of pairs inside the window.
func (w *PairWindow) Len() int { return len(w.samples) - w.head }

// Means returns the mean queuing and serving times of the pairs inside the
// window, and false when it is empty.
func (w *PairWindow) Means() (queuing, serving time.Duration, ok bool) {
	n := time.Duration(w.Len())
	if n == 0 {
		return 0, 0, false
	}
	return w.queuing / n, w.serving / n, true
}

// pairBucket is one time slice of a PairBucketWindow: how many pairs it
// holds and their two sums.
type pairBucket struct {
	count            uint64
	queuing, serving time.Duration
}

// PairBucketWindow is the constant-memory kind of PairWindow: BucketWindow's
// ring of time buckets with a count and two sums per bucket and no latency
// bins, since nothing reads a per-instance quantile. Its means are exact over
// the retained buckets; samples leave within one bucket width of their exact
// expiry. Negative values clamp to zero and backwards timestamps to the
// latest time seen, as in BucketWindow; Add never allocates.
type PairBucketWindow struct {
	clock bucketClock
	ring  []pairBucket

	count            uint64 // totals over the retained buckets
	queuing, serving time.Duration
}

// NewPairBucketWindow creates a constant-memory paired window over span,
// divided into the given number of time buckets (0 applies DefaultBuckets).
func NewPairBucketWindow(span time.Duration, buckets int) *PairBucketWindow {
	clock, n := newBucketClock(span, buckets)
	return &PairBucketWindow{clock: clock, ring: make([]pairBucket, n)}
}

// advance retires the buckets that expired as of now and returns the bucket
// now falls in.
func (w *PairBucketWindow) advance(now time.Duration) *pairBucket {
	now, from, to := w.clock.advance(now)
	n := int64(len(w.ring))
	if to-from >= n {
		clear(w.ring)
		w.count, w.queuing, w.serving = 0, 0, 0
	} else {
		for i := from + 1; i <= to; i++ {
			b := &w.ring[i%n]
			w.count -= b.count
			w.queuing -= b.queuing
			w.serving -= b.serving
			*b = pairBucket{}
		}
	}
	return &w.ring[int64(now/w.clock.width)%n]
}

// Add records one (queuing, serving) pair at virtual time at.
func (w *PairBucketWindow) Add(at, queuing, serving time.Duration) {
	w.AddSums(at, 1, max(queuing, 0), max(serving, 0))
}

// AddSums folds n pairs summing to queuing and serving into the bucket
// containing at: a digest pair's Count and SumNS, at O(1). Zero pairs fold
// nothing and leave the window's clock alone.
func (w *PairBucketWindow) AddSums(at time.Duration, n uint64, queuing, serving time.Duration) {
	if n == 0 {
		return
	}
	b := w.advance(at)
	b.count += n
	b.queuing += queuing
	b.serving += serving
	w.count += n
	w.queuing += queuing
	w.serving += serving
}

// Advance evicts the buckets that have fallen out of the window as of now.
func (w *PairBucketWindow) Advance(now time.Duration) { w.advance(now) }

// Means returns the mean queuing and serving times of the pairs inside the
// window, and false when it is empty.
func (w *PairBucketWindow) Means() (queuing, serving time.Duration, ok bool) {
	if w.count == 0 {
		return 0, 0, false
	}
	n := time.Duration(w.count)
	return w.queuing / n, w.serving / n, true
}
