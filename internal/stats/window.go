package stats

import "time"

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
	scratch []time.Duration // Percentiles' copy of the live values, reused
}

// NewWindow creates a moving window over the given span of virtual time.
func NewWindow(span time.Duration) *Window {
	if span <= 0 {
		panic("stats: window span must be positive")
	}
	return &Window{span: span}
}

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
	// Walk the expired prefix, which the sum must visit anyway: each sample
	// is passed over once in its life (the last one is live, so the walk
	// stops inside the slice).
	i := 0
	for ; live[i].At < cutoff; i++ {
		w.sum -= live[i].Value
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

// Mean returns the average of the samples in the window, and false when the
// window is empty.
func (w *Window) Mean() (time.Duration, bool) {
	if w.Len() == 0 {
		return 0, false
	}
	return w.sum / time.Duration(w.Len()), true
}

// Percentile returns the p-quantile (p in [0,1]) of the samples in the
// window by nearest rank, and false when empty: the one-point case of
// Percentiles.
func (w *Window) Percentile(p float64) (time.Duration, bool) {
	var out [1]time.Duration
	ok := w.Percentiles([]float64{p}, out[:])
	return out[0], ok
}

// Percentiles writes the ps[i]-quantile (clamped to [0,1]) of the samples
// in the window into out[i] by nearest rank, and reports false, with out
// untouched, when the window is empty. The live values are gathered once,
// into a copy the window keeps for the next read, and each grid point is
// selected from it. Because of that copy Percentiles, like Add, must not run
// concurrently with any other method; the aggregator calls it under its lock.
func (w *Window) Percentiles(ps []float64, out []time.Duration) bool {
	n := w.Len()
	if n == 0 {
		return false
	}
	vals := w.scratch[:0]
	for _, s := range w.samples[w.head:] {
		vals = append(vals, s.Value)
	}
	w.scratch = vals
	// After selecting rank k, vals[k:] holds exactly ranks k and up, so an
	// ascending grid narrows each selection to that suffix.
	from := 0
	for i, p := range ps {
		k := rank(n, p)
		if k < from {
			from = 0
		}
		out[i] = selectKth(vals[from:], k-from)
		from = k
	}
	return true
}
