package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowMean(t *testing.T) {
	w := NewWindow(10 * time.Second)
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

func TestWindowEviction(t *testing.T) {
	w := NewWindow(10 * time.Second)
	w.Add(0, 1*time.Second)
	w.Add(5*time.Second, 2*time.Second)
	w.Add(12*time.Second, 3*time.Second) // evicts the t=0 sample (cutoff 2s)
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	m, _ := w.Mean()
	if m != 2500*time.Millisecond {
		t.Errorf("Mean after eviction = %v, want 2.5s", m)
	}
	w.Advance(30 * time.Second) // everything falls out
	if w.Len() != 0 {
		t.Fatalf("Len after Advance = %d, want 0", w.Len())
	}
	if _, ok := w.Mean(); ok {
		t.Error("drained window reported a mean")
	}
}

func TestWindowBoundaryInclusive(t *testing.T) {
	w := NewWindow(10 * time.Second)
	w.Add(0, time.Second)
	// At exactly now-span the sample is still included (cutoff is exclusive).
	w.Advance(10 * time.Second)
	if w.Len() != 1 {
		t.Fatalf("sample at exact window edge evicted")
	}
	w.Advance(10*time.Second + 1)
	if w.Len() != 0 {
		t.Fatalf("sample past window edge retained")
	}
}

func TestWindowPercentileAndMax(t *testing.T) {
	w := NewWindow(time.Hour)
	for i := 1; i <= 100; i++ {
		w.Add(time.Duration(i)*time.Second, time.Duration(i)*time.Millisecond)
	}
	p99, ok := w.Percentile(0.99)
	if !ok || p99 != 99*time.Millisecond {
		t.Errorf("P99 = %v,%v; want 99ms", p99, ok)
	}
	p0, _ := w.Percentile(-0.5) // clamped to 0
	if p0 != 1*time.Millisecond {
		t.Errorf("P(min) = %v, want 1ms", p0)
	}
	p1, _ := w.Percentile(1.5) // clamped to 1
	if p1 != 100*time.Millisecond {
		t.Errorf("P(max) = %v, want 100ms", p1)
	}
}

func TestWindowEmptyPercentile(t *testing.T) {
	w := NewWindow(time.Second)
	if _, ok := w.Percentile(0.5); ok {
		t.Error("empty window reported a percentile")
	}
	if _, ok := w.Mean(); ok {
		t.Error("empty window reported a mean")
	}
}

func TestWindowRejectsTimeTravel(t *testing.T) {
	w := NewWindow(time.Second)
	w.Add(5*time.Second, time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing timestamp did not panic")
		}
	}()
	w.Add(4*time.Second, time.Second)
}

func TestNewWindowValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

// Regression: the first Add after an idle gap longer than the span used to
// pay for every buffered sample (the seed implementation shifted the whole
// slice on each eviction; with the head index, a naive per-sample walk would
// still scan the dead prefix). A fully expired window must be dropped in one
// truncation, leaving only the new sample in the backing slice.
func TestWindowIdleGapOneTruncation(t *testing.T) {
	w := NewWindow(10 * time.Second)
	for i := 0; i < 5000; i++ {
		w.Add(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	w.Add(time.Hour, 7*time.Millisecond) // idle gap ≫ span: everything expired
	if w.Len() != 1 {
		t.Fatalf("Len after idle gap = %d, want 1", w.Len())
	}
	if len(w.samples) != 1 || w.head != 0 {
		t.Fatalf("backing slice not truncated: len=%d head=%d, want 1,0",
			len(w.samples), w.head)
	}
	if m, ok := w.Mean(); !ok || m != 7*time.Millisecond {
		t.Errorf("Mean after idle gap = %v,%v; want 7ms", m, ok)
	}
}

// Regression: steady-state eviction must not shift the slice on every Add.
// The head index absorbs evictions; compaction happens only when the dead
// prefix outweighs the live samples, so each sample is copied O(1) times
// over its lifetime.
func TestWindowAmortizedCompaction(t *testing.T) {
	w := NewWindow(time.Second)
	for i := 0; i < 10000; i++ {
		w.Add(time.Duration(i)*time.Millisecond, time.Millisecond)
		if w.head > len(w.samples)/2 {
			t.Fatalf("dead prefix exceeds live samples at i=%d: head=%d len=%d",
				i, w.head, len(w.samples))
		}
	}
	if got, want := w.Len(), 1001; got != want {
		t.Fatalf("steady-state Len = %d, want %d", got, want)
	}
	if m, _ := w.Mean(); m != time.Millisecond {
		t.Errorf("steady-state Mean = %v", m)
	}
}

// Property: the window mean always equals the mean of exactly the samples
// newer than now-span, under random arrival patterns.
func TestPropertyWindowMeanMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := time.Duration(1+rng.Intn(50)) * time.Second
		w := NewWindow(span)
		type rec struct{ at, v time.Duration }
		var all []rec
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			now += time.Duration(rng.Intn(3000)) * time.Millisecond
			v := time.Duration(rng.Intn(1000)) * time.Millisecond
			w.Add(now, v)
			all = append(all, rec{now, v})

			var sum time.Duration
			var n int
			for _, r := range all {
				if r.at >= now-span {
					sum += r.v
					n++
				}
			}
			if n != w.Len() {
				return false
			}
			want := sum / time.Duration(n)
			if got, _ := w.Mean(); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
