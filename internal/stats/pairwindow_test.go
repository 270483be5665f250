package stats

import (
	"math/rand"
	"testing"
	"time"
)

// TestPairWindowsMatchTwoWindows feeds one seeded stream of (queuing,
// serving) pairs — bursts, idle gaps longer than the span, reads in between —
// to each paired window and to two single-value windows of the same kind.
// The paired means must equal the two windows' means bit for bit: folding
// both halves into one window changes the bookkeeping, not the numbers.
func TestPairWindowsMatchTwoWindows(t *testing.T) {
	const span = 10 * time.Second
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		exact, exactQ, exactS := NewPairWindow(span), NewWindow(span), NewWindow(span)
		bucketed, bucketQ, bucketS := NewPairBucketWindow(span, 8), NewBucketWindow(span, 8), NewBucketWindow(span, 8)
		now := time.Duration(0)
		for i := 0; i < 3000; i++ {
			switch r := rng.Intn(100); {
			case r == 0:
				now += 3 * span // everything expires
			case r < 20:
				now += time.Duration(rng.Int63n(int64(span / 4)))
			default:
				now += time.Duration(rng.Intn(20)) * time.Millisecond
			}
			if rng.Intn(10) == 0 {
				exact.Advance(now)
				exactQ.Advance(now)
				exactS.Advance(now)
				bucketed.Advance(now)
				bucketQ.Advance(now)
				bucketS.Advance(now)
			} else {
				q := time.Duration(rng.Int63n(int64(time.Second)))
				s := time.Duration(rng.Int63n(int64(time.Second))) + 1
				exact.Add(now, q, s)
				exactQ.Add(now, q)
				exactS.Add(now, s)
				bucketed.Add(now, q, s)
				bucketQ.Add(now, q)
				bucketS.Add(now, s)
			}
			for _, c := range []struct {
				name string
				pair interface {
					Means() (time.Duration, time.Duration, bool)
				}
				q, s MovingWindow
			}{{"exact", exact, exactQ, exactS}, {"bucketed", bucketed, bucketQ, bucketS}} {
				gq, gs, ok := c.pair.Means()
				wq, okq := c.q.Mean()
				ws, _ := c.s.Mean()
				if gq != wq || gs != ws || ok != okq {
					t.Fatalf("seed %d step %d, %s: paired (%v, %v, %v), two windows (%v, %v, %v)",
						seed, i, c.name, gq, gs, ok, wq, ws, okq)
				}
			}
		}
	}
}

// TestPairBucketWindowAddSums: folding n pairs by their sums lands exactly
// where n single adds at the same instant would, zero pairs leave the window
// alone, and negative values clamp to zero as in BucketWindow.
func TestPairBucketWindowAddSums(t *testing.T) {
	one, sums := NewPairBucketWindow(time.Second, 4), NewPairBucketWindow(time.Second, 4)
	for _, v := range []time.Duration{3, 5, 10} {
		one.Add(100*time.Millisecond, v, 2*v)
	}
	sums.AddSums(100*time.Millisecond, 3, 18, 36)
	sums.AddSums(time.Hour, 0, 1, 1) // nothing to fold: the clock stays put
	q1, s1, _ := one.Means()
	q2, s2, ok := sums.Means()
	if !ok || q1 != q2 || s1 != s2 || q2 != 6 || s2 != 12 {
		t.Fatalf("AddSums means (%v, %v, %v), single adds (%v, %v)", q2, s2, ok, q1, s1)
	}
	one.Advance(2 * time.Second)
	if _, _, ok := one.Means(); ok {
		t.Error("pairs outlived the span")
	}
	neg := NewPairBucketWindow(time.Second, 4)
	neg.Add(0, -time.Second, 4)
	neg.Add(0, 2, -time.Second)
	if q, s, _ := neg.Means(); q != 1 || s != 2 {
		t.Errorf("negative values: means (%v, %v), want (1ns, 2ns)", q, s)
	}
}

// TestPairBucketWindowAddZeroAlloc: the constant-memory kind lays its ring
// down at construction, so a fold never allocates.
func TestPairBucketWindowAddZeroAlloc(t *testing.T) {
	w := NewPairBucketWindow(time.Second, 16)
	now := time.Duration(0)
	if allocs := testing.AllocsPerRun(2000, func() {
		now += 3 * time.Millisecond
		w.Add(now, time.Millisecond, 2*time.Millisecond)
	}); allocs != 0 {
		t.Errorf("Add allocated %.1f times per call", allocs)
	}
}

// TestPairWindowsClampBackwardsTime: both kinds fold a pair stamped before
// the latest time seen at that latest time, and read means as of it.
func TestPairWindowsClampBackwardsTime(t *testing.T) {
	for name, w := range map[string]interface {
		Add(at, queuing, serving time.Duration)
		Advance(now time.Duration)
		Means() (time.Duration, time.Duration, bool)
	}{"exact": NewPairWindow(time.Second), "bucketed": NewPairBucketWindow(time.Second, 4)} {
		w.Add(2*time.Second, 1, 1)
		w.Add(0, 3, 5) // clamped to 2s: lives until 3s, not 1s
		w.Advance(time.Second)
		if q, s, ok := w.Means(); !ok || q != 2 || s != 3 {
			t.Errorf("%s: means (%v, %v, %v) after a backwards add, want (2ns, 3ns)", name, q, s, ok)
		}
		w.Advance(4 * time.Second)
		if _, _, ok := w.Means(); ok {
			t.Errorf("%s: pairs outlived the span", name)
		}
	}
	for name, fn := range map[string]func(){
		"span":    func() { NewPairWindow(0) },
		"buckets": func() { NewPairBucketWindow(-1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
