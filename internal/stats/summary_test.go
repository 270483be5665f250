package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty summary not all-zero")
	}
	for _, v := range []time.Duration{30, 10, 20} {
		s.Observe(v * time.Millisecond)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Mean() != 20*time.Millisecond {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 10*time.Millisecond || s.Max() != 30*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 60*time.Millisecond {
		t.Errorf("Sum = %v", s.Sum())
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSummaryPercentileInterpolation(t *testing.T) {
	s := NewSummary()
	s.Observe(0)
	s.Observe(100 * time.Millisecond)
	if got := s.Percentile(0.5); got != 50*time.Millisecond {
		t.Errorf("P50 of {0,100ms} = %v, want 50ms", got)
	}
	if got := s.Percentile(0); got != 0 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(1); got != 100*time.Millisecond {
		t.Errorf("P100 = %v", got)
	}

	// Ranks 0-9 distinct, 10-16 a run of equal values, 17-19 above it,
	// observed shuffled: lo and hi land just below, inside and at the top
	// edge of the run, and the answer is the sorted slice's interpolation.
	var vals []time.Duration
	for i := 0; i < 10; i++ {
		vals = append(vals, time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < 7; i++ {
		vals = append(vals, 50*time.Millisecond)
	}
	vals = append(vals, 100*time.Millisecond, 110*time.Millisecond, 120*time.Millisecond)
	sorted := slices.Clone(vals)
	rand.New(rand.NewSource(3)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, pos := range []float64{9.5, 12.5, 16, 16.5} {
		s := NewSummary()
		for _, v := range vals {
			s.Observe(v)
		}
		p := pos / float64(len(vals)-1)
		at := p * float64(len(vals)-1)
		lo, hi := int(math.Floor(at)), int(math.Ceil(at))
		want := sorted[lo] + time.Duration((at-float64(lo))*float64(sorted[hi]-sorted[lo]))
		if got := s.Percentile(p); got != want {
			t.Errorf("Percentile at rank %v over a duplicate run = %v, want %v", pos, got, want)
		}
	}
}

func TestSummaryP99OnUniform(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 1000; i++ {
		s.Observe(time.Duration(i) * time.Millisecond)
	}
	p99 := s.P99()
	if p99 < 989*time.Millisecond || p99 > 991*time.Millisecond {
		t.Errorf("P99 of 1..1000ms = %v, want ≈990ms", p99)
	}
	if s.P50() != 500500*time.Microsecond {
		t.Errorf("P50 = %v, want 500.5ms", s.P50())
	}
}

func TestSummaryInterleavedObserveAndQuery(t *testing.T) {
	// Percentile reorders the values internally; further observations must still work.
	s := NewSummary()
	s.Observe(5 * time.Millisecond)
	_ = s.P50()
	s.Observe(1 * time.Millisecond)
	if got := s.Min(); got != 1*time.Millisecond {
		t.Errorf("Min after interleaved observe = %v", got)
	}
}

// TestSummaryGrowAndDoubling pins the array growth: a grown summary takes
// its observations without reallocating, and an ungrown one reallocates
// only when full, to twice its length, with every value kept.
func TestSummaryGrowAndDoubling(t *testing.T) {
	s := NewSummary()
	s.Grow(1000)
	array := &s.values[:1][0]
	for i := range 1000 {
		s.Observe(time.Duration(i))
	}
	if &s.values[0] != array {
		t.Error("1000 observations into a summary grown by 1000 reallocated its array")
	}
	d := NewSummary()
	var caps []int
	for i := range 1000 {
		if len(d.values) == cap(d.values) && i > 0 {
			caps = append(caps, cap(d.values))
		}
		d.Observe(time.Duration(i))
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] < 2*caps[i-1] {
			t.Fatalf("array grew from %d to %d, want doubling", caps[i-1], caps[i])
		}
	}
	if d.Count() != 1000 || d.Sum() != s.Sum() || d.P99() != s.P99() || d.Min() != 0 || d.Max() != 999 {
		t.Errorf("doubled summary n=%d sum=%v p99=%v, grown n=%d sum=%v p99=%v",
			d.Count(), d.Sum(), d.P99(), s.Count(), s.Sum(), s.P99())
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(10*time.Second, time.Second); got != 10 {
		t.Errorf("Improvement = %v, want 10", got)
	}
	if got := Improvement(0, 0); got != 1 {
		t.Errorf("Improvement(0,0) = %v, want 1", got)
	}
	if got := Improvement(time.Second, 0); !math.IsInf(got, 1) {
		t.Errorf("Improvement(1s,0) = %v, want +Inf", got)
	}
}

// Property: Percentile is monotone in p and bounded by Min/Max.
func TestPropertySummaryPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSummary()
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			s.Observe(time.Duration(rng.Intn(1_000_000)) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			v := s.Percentile(p)
			if v < prev || v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the summary mean equals the naive mean.
func TestPropertySummaryMeanExact(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSummary()
		var vals []time.Duration
		for _, r := range raw {
			v := time.Duration(r % 1_000_000)
			s.Observe(v)
			vals = append(vals, v)
		}
		var sum time.Duration
		for _, v := range vals {
			sum += v
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return s.Mean() == sum/time.Duration(len(vals)) && s.Min() == vals[0] && s.Max() == vals[len(vals)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
