package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestBucketWindowMean(t *testing.T) {
	w := NewBucketWindow(10*time.Second, 10)
	if _, ok := w.Mean(); ok {
		t.Fatal("empty window reported a mean")
	}
	w.Add(1*time.Second, 100*time.Millisecond)
	w.Add(2*time.Second, 300*time.Millisecond)
	m, ok := w.Mean()
	if !ok || m != 200*time.Millisecond {
		t.Fatalf("Mean = %v,%v; want 200ms,true", m, ok)
	}
}

func TestBucketWindowEviction(t *testing.T) {
	w := NewBucketWindow(10*time.Second, 10) // width 1s
	w.Add(0, 1*time.Second)
	w.Add(5*time.Second, 2*time.Second)
	// Advancing well past the first bucket's expiry drops only it.
	w.Advance(12 * time.Second)
	if m, _ := w.Mean(); m != 2*time.Second {
		t.Errorf("Mean after eviction = %v, want 2s", m)
	}
	// An idle gap longer than the span drains everything in one advance.
	w.Advance(time.Hour)
	if _, ok := w.Mean(); ok {
		t.Error("drained window reported a mean")
	}
	// The window still accepts samples after the gap.
	w.Add(time.Hour+time.Second, 7*time.Second)
	if m, ok := w.Mean(); !ok || m != 7*time.Second {
		t.Errorf("Mean after refill = %v,%v", m, ok)
	}
}

func TestBucketWindowGranularity(t *testing.T) {
	// Samples leave within one bucket width of their exact expiry: a sample
	// never outlives span+width, and is never evicted before span-width.
	w := NewBucketWindow(10*time.Second, 10) // width 1s
	w.Add(1500*time.Millisecond, time.Second)
	w.Advance(10 * time.Second) // age 8.5s: inside the span, must be retained
	if m, ok := w.Mean(); !ok || m != time.Second {
		t.Fatal("sample inside the span evicted")
	}
	w.Advance(12500 * time.Millisecond) // age 11s > span+width: must be gone
	if _, ok := w.Mean(); ok {
		t.Fatal("sample older than span+width retained")
	}
}

func TestBucketWindowClampsBackwardsTime(t *testing.T) {
	w := NewBucketWindow(10*time.Second, 10)
	w.Add(5*time.Second, time.Second)
	w.Add(4*time.Second, 3*time.Second) // clamped to t=5s, not a panic
	if m, _ := w.Mean(); m != 2*time.Second {
		t.Errorf("Mean = %v, want 2s", m)
	}
}

func TestBucketWindowPercentileAndMax(t *testing.T) {
	w := NewBucketWindow(time.Hour, 32)
	for i := 1; i <= 100; i++ {
		w.Add(time.Duration(i)*time.Second, time.Duration(i)*time.Millisecond)
	}
	// Bin interpolation: the p99 must land within the bin growth factor of
	// the exact 99ms.
	p99, ok := w.Percentile(0.99)
	if !ok {
		t.Fatal("no percentile from a populated window")
	}
	lo := time.Duration(float64(99*time.Millisecond) / binGrowth)
	hi := 100 * time.Millisecond // clamped by the tracked max
	if p99 < lo || p99 > hi {
		t.Errorf("P99 = %v, want within [%v, %v]", p99, lo, hi)
	}
	// Extreme ranks are exact: tracked min and max.
	if p0, _ := w.Percentile(-0.5); p0 != 1*time.Millisecond {
		t.Errorf("P(min) = %v, want 1ms", p0)
	}
	if p1, _ := w.Percentile(1.5); p1 != 100*time.Millisecond {
		t.Errorf("P(max) = %v, want 100ms", p1)
	}
}

// TestBucketWindowPercentiles: a grid read merges the live buckets' bins
// once and interpolates each point exactly as a bin histogram on the shared
// layout fed the same samples does; the p99 lands within the bin growth
// factor of the exact one, and the mean stays exact.
func TestBucketWindowPercentiles(t *testing.T) {
	w := NewBucketWindow(time.Hour, 4)
	h := NewBinHistogram()
	for i := 1; i <= 100; i++ {
		v := time.Duration(i) * time.Millisecond
		w.Add(time.Duration(i)*time.Second, v)
		h.Observe(v)
	}
	grid := []float64{0.99, 0.5, 0.9, 0, 1, -1, 2}
	got := make([]time.Duration, len(grid))
	if !w.Percentiles(grid, got) {
		t.Fatal("no percentiles from a populated window")
	}
	for i, p := range grid {
		if one, _ := w.Percentile(p); one != got[i] {
			t.Errorf("p=%v: grid %v, single %v", p, got[i], one)
		}
		if want := h.Quantile(p); got[i] != want {
			t.Errorf("p=%v: grid %v, bin histogram %v", p, got[i], want)
		}
	}
	if lo := time.Duration(float64(99*time.Millisecond) / binGrowth); got[0] < lo || got[0] > 100*time.Millisecond {
		t.Errorf("P99 = %v, want within [%v, 100ms]", got[0], lo)
	}
	if m, _ := w.Mean(); m != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", m)
	}
}

func TestBucketWindowEmpty(t *testing.T) {
	w := NewBucketWindow(time.Second, 0)
	if len(w.ring) != DefaultBuckets {
		t.Errorf("buckets = %d, want default %d", len(w.ring), DefaultBuckets)
	}
	if _, ok := w.Percentile(0.5); ok {
		t.Error("empty window reported a percentile")
	}
	if _, ok := w.Mean(); ok {
		t.Error("empty window reported a mean")
	}
}

func TestNewBucketWindowValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBucketWindow(0, 0) did not panic")
		}
	}()
	NewBucketWindow(0, 0)
}

// TestBucketWindowAddZeroAlloc pins the constant-memory claim: once
// constructed, steady-state Add never allocates.
func TestBucketWindowAddZeroAlloc(t *testing.T) {
	w := NewBucketWindow(time.Second, 16)
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(2000, func() {
		at += time.Millisecond
		w.Add(at, 5*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("BucketWindow.Add allocates %.1f times per op in steady state, want 0", allocs)
	}
	// Percentile reads must not allocate either (they reuse the scratch).
	allocs = testing.AllocsPerRun(100, func() {
		w.Percentile(0.99)
	})
	if allocs != 0 {
		t.Fatalf("BucketWindow.Percentile allocates %.1f times per op, want 0", allocs)
	}
}

// Property: under monotone timestamps the bucketed window's retained set is
// exactly the samples whose bucket index is within one ring revolution of
// the current bucket — so the mean over that set is exact and predictable (only eviction timing is granular, by at most one
// bucket width in either direction of the span boundary).
func TestPropertyBucketWindowTracksExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := time.Duration(5+rng.Intn(50)) * time.Second
		bucketed := NewBucketWindow(span, 16)
		width := bucketed.clock.width
		n := int64(len(bucketed.ring))
		var hist []Sample
		now := time.Duration(0)
		for i := 0; i < 300; i++ {
			now += time.Duration(rng.Intn(2000)) * time.Millisecond
			v := time.Duration(rng.Intn(1000)) * time.Millisecond
			bucketed.Add(now, v)
			hist = append(hist, Sample{At: now, Value: v})
			wantLen, wantSum := 0, time.Duration(0)
			for _, s := range hist {
				if int64(now/width)-int64(s.At/width) < n {
					wantLen++
					wantSum += s.Value
				}
			}
			if m, ok := bucketed.Mean(); ok != (wantLen > 0) || ok && m != wantSum/time.Duration(wantLen) {
				return false
			}
			// Eviction granularity: everything retained is younger than
			// span+width, everything younger than span-width is retained.
			for _, s := range hist {
				age := now - s.At
				retained := int64(now/width)-int64(s.At/width) < n
				if retained && age > span+width {
					return false
				}
				if !retained && age < span-width {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBucketWindowAdd measures the steady-state O(1) add/evict path.
func BenchmarkBucketWindowAdd(b *testing.B) {
	w := NewBucketWindow(25*time.Second, 32)
	b.ReportAllocs()
	at := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += time.Millisecond
		w.Add(at, 5*time.Millisecond)
	}
}

// BenchmarkWindowAddSteadyState measures the exact window's amortized
// add/evict with a full 25s window at 1ms cadence (25k live samples) — the
// configuration whose per-Add slice shift cost 142µs before the head-index
// eviction rewrite.
func BenchmarkWindowAddSteadyState(b *testing.B) {
	w := NewWindow(25 * time.Second)
	b.ReportAllocs()
	at := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += time.Millisecond
		w.Add(at, 5*time.Millisecond)
	}
}
