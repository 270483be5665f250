package stats

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newStripedExact(span time.Duration, n int) *Striped {
	return NewStriped(n, func() MovingWindow { return NewWindow(span) })
}

func newStripedBucketed(span time.Duration, n int) *Striped {
	return NewStriped(n, func() MovingWindow { return NewBucketWindow(span, 16) })
}

// TestStripedMergeEquivalence: a striped window fed a sample set reports the
// same mean and nearest-rank percentile as one exact window fed the same
// samples — striping changes only the synchronization structure. This is the
// determinism guarantee the DES harness relies on.
func TestStripedMergeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := 30 * time.Second
		single := NewWindow(span)
		striped := newStripedExact(span, 8)
		now := time.Duration(0)
		for i := 0; i < 400; i++ {
			now += time.Duration(rng.Intn(500)) * time.Millisecond
			v := time.Duration(rng.Intn(2000)) * time.Millisecond
			single.Add(now, v)
			striped.Add(uint64(rng.Int63()), now, v)
		}
		sm, sok := single.Mean()
		mm, mok := striped.Mean(now)
		if sok != mok || sm != mm {
			return false
		}
		for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
			sp, _ := single.Percentile(p)
			mp, _ := striped.Percentile(now, p)
			if sp != mp {
				return false
			}
		}
		if single.Len() != striped.Len() {
			return false
		}
		smax, _ := single.Max()
		mmax, _ := striped.Max(now)
		return smax == mmax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestStripedEmpty(t *testing.T) {
	s := newStripedExact(time.Second, 4)
	if _, ok := s.Mean(0); ok {
		t.Error("empty striped window reported a mean")
	}
	if _, ok := s.Percentile(0, 0.5); ok {
		t.Error("empty striped window reported a percentile")
	}
	if _, ok := s.Max(0); ok {
		t.Error("empty striped window reported a max")
	}
	if s.Len() != 0 {
		t.Error("empty striped window reported samples")
	}
}

// TestStripedBucketedPercentile exercises the bucketed merge path: quantiles
// merge per-stripe latency bins rather than gathering exact samples.
func TestStripedBucketedPercentile(t *testing.T) {
	s := newStripedBucketed(time.Hour, 4)
	now := time.Duration(0)
	for i := 1; i <= 100; i++ {
		now += time.Second
		s.Add(uint64(i), now, time.Duration(i)*time.Millisecond)
	}
	p99, ok := s.Percentile(now, 0.99)
	if !ok {
		t.Fatal("no percentile from a populated striped window")
	}
	lo := time.Duration(float64(99*time.Millisecond) / binGrowth)
	if p99 < lo || p99 > 100*time.Millisecond {
		t.Errorf("P99 = %v, want within [%v, 100ms]", p99, lo)
	}
	if m, _ := s.Mean(now); m != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", m)
	}
}

// foreignWindow hides a Window's concrete type, so Striped takes its
// fallback merge.
type foreignWindow struct{ MovingWindow }

// TestStripedPercentilesGrid: one merged read of a quantile grid returns
// what one Percentile call per point does — and, for exact stripes, what
// nearest rank over the independently sorted union does — on exact,
// bucketed and foreign stripes, one stripe and many, from an empty window
// through a single sample to one that evicts.
func TestStripedPercentilesGrid(t *testing.T) {
	grid := []float64{0.5, 0.9, 0.99, 0.999, 0, 1, -0.5, 1.5}
	span := 20 * time.Second
	kinds := map[string]func() MovingWindow{
		"exact":    func() MovingWindow { return NewWindow(span) },
		"bucketed": func() MovingWindow { return NewBucketWindow(span, 16) },
		"foreign":  func() MovingWindow { return foreignWindow{NewWindow(span)} },
	}
	for kind, mk := range kinds {
		for _, stripes := range []int{1, 8} {
			for _, samples := range []int{0, 1, 2, 7, 600} {
				s := NewStriped(stripes, mk)
				rng := rand.New(rand.NewSource(int64(samples)))
				now := time.Duration(0)
				type sample struct{ at, v time.Duration }
				var fed []sample
				for i := 0; i < samples; i++ {
					now += time.Duration(rng.Intn(100)) * time.Millisecond
					v := time.Duration(1+rng.Intn(3000)) * time.Millisecond
					s.Add(uint64(i), now, v)
					fed = append(fed, sample{now, v})
				}
				got := make([]time.Duration, len(grid))
				ok := s.Percentiles(now, grid, got)
				if ok != (samples > 0) {
					t.Fatalf("%s/%d stripes/%d samples: ok = %v", kind, stripes, samples, ok)
				}
				var live []time.Duration
				for _, f := range fed {
					if f.at >= now-span {
						live = append(live, f.v)
					}
				}
				sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
				for i, p := range grid {
					one, oneOK := s.Percentile(now, p)
					if oneOK != ok || (ok && one != got[i]) {
						t.Errorf("%s/%d stripes/%d samples: p=%v: grid %v, single %v,%v", kind, stripes, samples, p, got[i], one, oneOK)
					}
					if kind == "exact" && ok {
						q := p
						if q < 0 {
							q = 0
						}
						if q > 1 {
							q = 1
						}
						if want := live[int(q*float64(len(live)-1)+0.5)]; got[i] != want {
							t.Errorf("exact/%d stripes/%d samples: p=%v: grid %v, sorted union %v", stripes, samples, p, got[i], want)
						}
					}
				}
			}
		}
	}
}

// TestStripedClampsRacingClocks: adds whose timestamps arrive out of order
// (the concurrent engines read the clock before reaching a stripe lock) are
// clamped per stripe instead of panicking the exact window.
func TestStripedClampsRacingClocks(t *testing.T) {
	s := newStripedExact(time.Minute, 2)
	s.Add(0, 5*time.Second, time.Millisecond)
	s.Add(0, 3*time.Second, time.Millisecond) // same stripe, older clock
	s.Add(1, 1*time.Second, time.Millisecond) // other stripe, independent floor
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestStripedReset(t *testing.T) {
	s := newStripedExact(time.Minute, 4)
	for i := uint64(0); i < 16; i++ {
		s.Add(i, time.Second, time.Millisecond)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("Len after Reset = %d", s.Len())
	}
}

func TestNewStripedValidates(t *testing.T) {
	if got := NewStriped(0, func() MovingWindow { return NewWindow(time.Second) }).Stripes(); got <= 0 {
		t.Errorf("default stripe count = %d, want positive", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewStriped(_, nil) did not panic")
		}
	}()
	NewStriped(4, nil)
}

// TestStripedConcurrentAdds hammers one striped window from many goroutines
// with racing clock reads; meaningful under -race, and the totals must still
// balance.
func TestStripedConcurrentAdds(t *testing.T) {
	s := newStripedBucketed(time.Minute, 8)
	const workers, perWorker = 8, 500
	var clock sync.Mutex
	now := time.Duration(0)
	readClock := func() time.Duration {
		clock.Lock()
		defer clock.Unlock()
		now += time.Microsecond
		return now
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				at := readClock()
				s.Add(uint64(w*perWorker+i), at, time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perWorker)
	}
	if m, ok := s.Mean(now); !ok || m != time.Millisecond {
		t.Errorf("Mean = %v,%v; want 1ms", m, ok)
	}
}
