package stats

import (
	"math"
	"time"
)

// binGrowth is the growth factor of the log-spaced latency bins every
// BucketWindow shares (quantile relative error is bounded by it), matching
// the Histogram's geometry choice.
const binGrowth = 1.25

// binBounds are the shared latency-bin upper bounds, 1µs to ~80min. Shared
// across all BucketWindows so per-window memory is just the counters.
var binBounds = func() []time.Duration {
	var b []time.Duration
	bound := float64(time.Microsecond)
	const maxBound = float64(80 * time.Minute)
	for bound < maxBound {
		b = append(b, time.Duration(bound))
		bound *= binGrowth
	}
	return b
}()

// binOf returns the index of the first bin whose bound is ≥ v, or -1 when v
// exceeds every bound (the overflow bin).
func binOf(v time.Duration) int {
	lo, hi := 0, len(binBounds)-1
	if v > binBounds[hi] {
		return -1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if binBounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// timeBucket is one fixed slice of the window's span: aggregate moments plus
// log-spaced latency bins, so the window can evict a whole bucket in O(1)
// aggregate work and still answer quantiles from the surviving bins.
type timeBucket struct {
	count    uint64
	sum      time.Duration
	min, max time.Duration
	overflow uint32 // samples beyond the last bin bound (quantile → max)
	bins     []uint32
}

func (b *timeBucket) clear() {
	if b.count == 0 {
		return
	}
	b.count = 0
	b.sum = 0
	b.min = 0
	b.max = 0
	b.overflow = 0
	for i := range b.bins {
		b.bins[i] = 0
	}
}

// BucketWindow is a constant-memory moving window: the span is cut into a
// fixed number of time buckets arranged as a ring, so Add and eviction are
// O(1) (amortized — a bucket boundary crossing retires exactly the buckets
// that expired, and a long idle gap clears at most every bucket once) and
// the memory footprint never grows with load, unlike Window's keep-every-
// sample slice. The price is granularity: samples leave the window within
// one bucket width of their exact expiry, and Percentile interpolates
// inside log-spaced latency bins (relative error bounded by the bin growth
// factor) instead of ranking exact samples.
//
// Timestamps that go backwards are clamped to the latest time seen rather
// than panicking, so a caller need not order its clock reads.
//
// In steady state Add allocates nothing: every buffer is laid down at
// construction (asserted by TestBucketWindowAddZeroAlloc).
type BucketWindow struct {
	clock bucketClock
	ring  []timeBucket

	// Live totals over the retained buckets, maintained on eviction.
	count uint64
	sum   time.Duration

	scratch []uint64 // quantile merge scratch, len(binBounds)
}

// DefaultBuckets is the bucket count NewBucketWindow applies when the
// caller passes zero: 32 buckets keep the eviction granularity near 3% of
// the span.
const DefaultBuckets = 32

// NewBucketWindow creates a constant-memory moving window over span,
// divided into the given number of time buckets (0 applies DefaultBuckets).
func NewBucketWindow(span time.Duration, buckets int) *BucketWindow {
	clock, n := newBucketClock(span, buckets)
	w := &BucketWindow{
		clock:   clock,
		ring:    make([]timeBucket, n),
		scratch: make([]uint64, len(binBounds)),
	}
	for i := range w.ring {
		w.ring[i].bins = make([]uint32, len(binBounds))
	}
	return w
}

// bucketClock is the time half of a bucketed window, shared by BucketWindow
// and PairBucketWindow: it clamps time to a monotone floor and cuts it into
// buckets of one width, the newest of which is current.
type bucketClock struct {
	span  time.Duration
	width time.Duration // span / ring length, rounded up

	last    time.Duration
	cur     int64 // absolute index (at/width) of the newest bucket
	started bool
}

// newBucketClock validates a window's span and bucket count (0 applies
// DefaultBuckets) and returns its clock and ring length.
func newBucketClock(span time.Duration, buckets int) (bucketClock, int) {
	if span <= 0 {
		panic("stats: window span must be positive")
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	if time.Duration(buckets) > span {
		buckets = int(span) // never let a bucket be narrower than 1ns
	}
	return bucketClock{span: span, width: (span + time.Duration(buckets) - 1) / time.Duration(buckets)}, buckets
}

// advance clamps now to the floor and makes the bucket containing it current.
// It returns the clamped now and the absolute bucket indexes (from, to] whose
// ring slots the window front stepped over: each held the bucket exactly one
// revolution older, which expires now. A step of a whole ring or more means
// every bucket expired (an idle gap longer than the span).
func (c *bucketClock) advance(now time.Duration) (clamped time.Duration, from, to int64) {
	if now < c.last {
		now = c.last
	} else {
		c.last = now
	}
	abs := int64(now / c.width)
	if !c.started {
		c.started = true
		c.cur = abs
	}
	from, c.cur = c.cur, abs
	return now, from, abs
}

// advance retires buckets that fall out of the window as of now and makes
// the bucket containing now current. Returns the clamped now.
func (w *BucketWindow) advance(now time.Duration) time.Duration {
	now, from, to := w.clock.advance(now)
	n := int64(len(w.ring))
	if to-from >= n {
		// One pass over the fixed ring, not over the samples it absorbed.
		for i := range w.ring {
			w.ring[i].clear()
		}
		w.count = 0
		w.sum = 0
		return now
	}
	for i := from + 1; i <= to; i++ {
		b := &w.ring[i%n]
		w.count -= b.count
		w.sum -= b.sum
		b.clear()
	}
	return now
}

// Add records a sample at virtual time at. Negative values clamp to zero;
// backwards timestamps clamp to the latest time seen.
func (w *BucketWindow) Add(at, value time.Duration) {
	if value < 0 {
		value = 0
	}
	at = w.advance(at)
	b := &w.ring[(at/w.clock.width)%time.Duration(len(w.ring))]
	if b.count == 0 || value < b.min {
		b.min = value
	}
	if value > b.max {
		b.max = value
	}
	b.count++
	b.sum += value
	if idx := binOf(value); idx >= 0 {
		b.bins[idx]++
	} else {
		b.overflow++
	}
	w.count++
	w.sum += value
}

// Advance evicts buckets that have fallen out of the window as of now,
// without adding a sample.
func (w *BucketWindow) Advance(now time.Duration) { w.advance(now) }

// Mean returns the average of the samples in the window — exact, since the
// per-bucket sums are exact; only eviction timing is granular.
func (w *BucketWindow) Mean() (time.Duration, bool) {
	if w.count == 0 {
		return 0, false
	}
	return w.sum / time.Duration(w.count), true
}

// binAccumulator merges the latency bins of a bucket window's live buckets so
// a quantile can be interpolated over them.
type binAccumulator struct {
	bins     []uint64
	count    uint64
	overflow uint64
	min, max time.Duration
}

// accumulateBins folds the window's live buckets into acc.
func (w *BucketWindow) accumulateBins(acc *binAccumulator) {
	for i := range w.ring {
		b := &w.ring[i]
		if b.count == 0 {
			continue
		}
		if acc.count == 0 || b.min < acc.min {
			acc.min = b.min
		}
		if b.max > acc.max {
			acc.max = b.max
		}
		acc.count += b.count
		acc.overflow += uint64(b.overflow)
		for j, c := range b.bins {
			acc.bins[j] += uint64(c)
		}
	}
}

// quantile interpolates the p-quantile from the accumulated bins, mirroring
// Histogram.Quantile: exact min/max at the extreme ranks, linear
// interpolation inside the matched bin, overflow reporting the tracked max.
func (acc *binAccumulator) quantile(p float64) (time.Duration, bool) {
	if acc.count == 0 {
		return 0, false
	}
	if p <= 0 {
		return acc.min, true
	}
	if p >= 1 {
		return acc.max, true
	}
	target := uint64(math.Ceil(p * float64(acc.count)))
	if target <= 1 {
		return acc.min, true
	}
	if target >= acc.count {
		return acc.max, true
	}
	if target > acc.count-acc.overflow {
		return acc.max, true
	}
	var cum uint64
	for i, c := range acc.bins {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lower := time.Duration(0)
			if i > 0 {
				lower = binBounds[i-1]
			}
			upper := binBounds[i]
			if upper > acc.max {
				upper = acc.max
			}
			if lower < acc.min {
				lower = acc.min
			}
			if upper < lower {
				return lower, true
			}
			frac := float64(target-cum) / float64(c)
			return lower + time.Duration(frac*float64(upper-lower)), true
		}
		cum += c
	}
	return acc.max, true
}

// Percentile estimates the p-quantile (p in [0,1]) of the samples in the
// window from the latency bins; relative error is bounded by the bin growth
// factor. Returns false when the window is empty: the one-point case of
// Percentiles.
func (w *BucketWindow) Percentile(p float64) (time.Duration, bool) {
	var out [1]time.Duration
	ok := w.Percentiles([]float64{p}, out[:])
	return out[0], ok
}

// Percentiles writes the ps[i]-quantile (clamped to [0,1]) of the samples
// in the window into out[i], merging the live buckets' bins once for the
// whole grid, and reports false, with out untouched, when the window is
// empty.
func (w *BucketWindow) Percentiles(ps []float64, out []time.Duration) bool {
	if w.count == 0 {
		return false
	}
	acc := binAccumulator{bins: w.scratchBins()}
	w.accumulateBins(&acc)
	for i, p := range ps {
		out[i], _ = acc.quantile(p) // clamps p itself
	}
	return true
}

// scratchBins returns the preallocated, zeroed merge scratch so Percentile
// does not allocate.
func (w *BucketWindow) scratchBins() []uint64 {
	for i := range w.scratch {
		w.scratch[i] = 0
	}
	return w.scratch
}
