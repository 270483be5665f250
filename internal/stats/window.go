package stats

import (
	"slices"
	"sort"
	"time"
)

// Sample is one observation tagged with the virtual time it was recorded.
type Sample struct {
	At    time.Duration
	Value time.Duration
}

// Window keeps samples from a sliding interval of virtual time. PowerChief
// evaluates its latency metric over such a window so that stale history does
// not hide the current load (§4.2).
//
// Samples must be added with nondecreasing timestamps; the window evicts
// samples older than the span on every access. Eviction is amortized O(1):
// expired samples are skipped by advancing a head index, and the backing
// slice is compacted only once the dead prefix outweighs the live samples,
// so steady-state Add never shifts the whole window (the seed implementation
// did, turning every ingest into an O(window population) copy). A fully
// expired window — the first Add after a long idle gap — is dropped in one
// truncation.
//
// Window retains every live sample, so Mean and Percentile are exact and
// deterministic; memory grows with the window population. BucketWindow is
// the constant-memory alternative behind the same MovingWindow interface.
type Window struct {
	span    time.Duration
	samples []Sample // live samples are samples[head:]
	head    int
	sum     time.Duration
	last    time.Duration
}

// NewWindow creates a moving window over the given span of virtual time.
func NewWindow(span time.Duration) *Window {
	if span <= 0 {
		panic("stats: window span must be positive")
	}
	return &Window{span: span}
}

// Span returns the window length.
func (w *Window) Span() time.Duration { return w.span }

// Add records a sample at virtual time at. Timestamps must not decrease.
func (w *Window) Add(at, value time.Duration) {
	if at < w.last {
		panic("stats: window samples must have nondecreasing timestamps")
	}
	w.last = at
	w.samples = append(w.samples, Sample{At: at, Value: value})
	w.sum += value
	w.evict(at)
}

// evict drops samples older than the span relative to now.
func (w *Window) evict(now time.Duration) {
	cutoff := now - w.span
	live := w.samples[w.head:]
	n := len(live)
	if n == 0 || live[0].At >= cutoff {
		return
	}
	if live[n-1].At < cutoff {
		// Everything expired (a long idle gap): one truncation, no scan of
		// the dead samples and no copy.
		w.samples = w.samples[:0]
		w.head = 0
		w.sum = 0
		return
	}
	// Binary search the eviction point; timestamps are nondecreasing.
	i := sort.Search(n, func(j int) bool { return live[j].At >= cutoff })
	for j := 0; j < i; j++ {
		w.sum -= live[j].Value
	}
	w.head += i
	// Compact only when the dead prefix dominates, so each sample is copied
	// O(1) times over its lifetime instead of once per subsequent Add.
	if w.head > len(w.samples)/2 {
		m := copy(w.samples, w.samples[w.head:])
		w.samples = w.samples[:m]
		w.head = 0
	}
}

// Advance evicts samples that have fallen out of the window as of now,
// without adding a new one.
func (w *Window) Advance(now time.Duration) {
	if now < w.last {
		panic("stats: window time must not go backwards")
	}
	w.last = now
	w.evict(now)
}

// Len returns the number of samples currently inside the window.
func (w *Window) Len() int { return len(w.samples) - w.head }

// Sum returns the sum of the samples currently inside the window.
func (w *Window) Sum() time.Duration { return w.sum }

// Mean returns the average of the samples in the window, and false when the
// window is empty.
func (w *Window) Mean() (time.Duration, bool) {
	if w.Len() == 0 {
		return 0, false
	}
	return w.sum / time.Duration(w.Len()), true
}

// MeanOr returns the window mean, or def when the window is empty.
func (w *Window) MeanOr(def time.Duration) time.Duration {
	if m, ok := w.Mean(); ok {
		return m
	}
	return def
}

// appendValues appends the live sample values to dst (for merged reads over
// striped windows).
func (w *Window) appendValues(dst []time.Duration) []time.Duration {
	for _, s := range w.samples[w.head:] {
		dst = append(dst, s.Value)
	}
	return dst
}

// Percentile returns the p-quantile (p in [0,1]) of the samples in the
// window using nearest-rank on a sorted copy, and false when empty.
func (w *Window) Percentile(p float64) (time.Duration, bool) {
	if w.Len() == 0 {
		return 0, false
	}
	vals := w.appendValues(make([]time.Duration, 0, w.Len()))
	slices.Sort(vals)
	return nearestRank(vals, p), true
}

// Max returns the largest sample in the window, and false when empty.
func (w *Window) Max() (time.Duration, bool) {
	live := w.samples[w.head:]
	if len(live) == 0 {
		return 0, false
	}
	max := live[0].Value
	for _, s := range live[1:] {
		if s.Value > max {
			max = s.Value
		}
	}
	return max, true
}

// Reset discards all samples but keeps the span and time floor.
func (w *Window) Reset() {
	w.samples = w.samples[:0]
	w.head = 0
	w.sum = 0
}
