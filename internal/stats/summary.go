package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Summary accumulates a full distribution of latency observations for
// end-of-run reporting: count, mean, and exact percentiles. The experiments
// report average and 99th-percentile end-to-end latency (Figures 4, 10, 12),
// so exactness matters more than memory here; runs observe at most a few
// hundred thousand queries.
type Summary struct {
	values []time.Duration
	sum    time.Duration
	sorted bool
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{} }

// Observe records one latency value.
func (s *Summary) Observe(v time.Duration) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// Count returns the number of observations.
func (s *Summary) Count() int { return len(s.values) }

// Mean returns the average of all observations, or 0 when empty.
func (s *Summary) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / time.Duration(len(s.values))
}

// Sum returns the total of all observations.
func (s *Summary) Sum() time.Duration { return s.sum }

func (s *Summary) sort() {
	if !s.sorted {
		slices.Sort(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-quantile (p in [0,1]) with linear interpolation
// between closest ranks, or 0 when empty.
func (s *Summary) Percentile(p float64) time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	if p <= 0 {
		s.sort()
		return s.values[0]
	}
	if p >= 1 {
		s.sort()
		return s.values[len(s.values)-1]
	}
	s.sort()
	pos := p * float64(len(s.values)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo] + time.Duration(frac*float64(s.values[hi]-s.values[lo]))
}

// P99 returns the 99th percentile, the tail metric the paper reports.
func (s *Summary) P99() time.Duration { return s.Percentile(0.99) }

// P50 returns the median.
func (s *Summary) P50() time.Duration { return s.Percentile(0.50) }

// Max returns the largest observation, or 0 when empty.
func (s *Summary) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// Min returns the smallest observation, or 0 when empty.
func (s *Summary) Min() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}

// String formats the summary for logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count(), s.Mean().Round(time.Microsecond), s.P50().Round(time.Microsecond),
		s.P99().Round(time.Microsecond), s.Max().Round(time.Microsecond))
}

// Improvement returns how many times smaller (better) this summary's metric
// is compared to a baseline value; e.g. baseline mean / this mean. Returns
// +Inf when this summary's value is zero and baseline is not.
func Improvement(baseline, improved time.Duration) float64 {
	if improved == 0 {
		if baseline == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(baseline) / float64(improved)
}
