package stats

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// Point is one time-series observation.
type Point struct {
	At    time.Duration
	Value float64
}

// Series records a named sequence of (virtual time, value) points, e.g. the
// frequency of one service instance over a run (Figure 11) or the fraction of
// peak power drawn (Figures 13/14).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point. Timestamps must not decrease.
func (s *Series) Add(at time.Duration, v float64) {
	if n := len(s.Points); n > 0 && at < s.Points[n-1].At {
		panic("stats: series timestamps must not decrease")
	}
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Last returns the most recent value, or def when empty.
func (s *Series) Last(def float64) float64 {
	if len(s.Points) == 0 {
		return def
	}
	return s.Points[len(s.Points)-1].Value
}

// Mean returns the arithmetic mean of the recorded values (the figures'
// "lines are average values across timeline"), or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// TimeSeries is a set of named series sharing a timeline, with helpers to
// render the runtime-behaviour figures as CSV.
type TimeSeries struct {
	series map[string]*Series
	order  []string
}

// NewTimeSeries returns an empty recorder.
func NewTimeSeries() *TimeSeries {
	return &TimeSeries{series: make(map[string]*Series)}
}

// Record appends a point to the named series, creating it on first use.
func (ts *TimeSeries) Record(name string, at time.Duration, v float64) {
	s, ok := ts.series[name]
	if !ok {
		s = &Series{Name: name}
		ts.series[name] = s
		ts.order = append(ts.order, name)
	}
	s.Add(at, v)
}

// Get returns the named series, or nil if absent.
func (ts *TimeSeries) Get(name string) *Series { return ts.series[name] }

// Names returns the series names in first-recorded order.
func (ts *TimeSeries) Names() []string {
	out := make([]string, len(ts.order))
	copy(out, ts.order)
	return out
}

// WriteCSV renders all series as CSV with one row per distinct timestamp and
// one column per series; cells without an observation carry the most recent
// prior value of that series (step interpolation), or are empty before the
// first observation.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	names := ts.Names()
	// Collect the union of timestamps.
	stampSet := make(map[time.Duration]struct{})
	for _, n := range names {
		for _, p := range ts.series[n].Points {
			stampSet[p.At] = struct{}{}
		}
	}
	stamps := make([]time.Duration, 0, len(stampSet))
	for at := range stampSet {
		stamps = append(stamps, at)
	}
	slices.Sort(stamps)

	header := append([]string{"time_s"}, names...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	idx := make([]int, len(names)) // cursor per series
	last := make([]string, len(names))
	for _, at := range stamps {
		row := make([]string, 0, len(names)+1)
		row = append(row, fmt.Sprintf("%.3f", at.Seconds()))
		for i, n := range names {
			pts := ts.series[n].Points
			for idx[i] < len(pts) && pts[idx[i]].At <= at {
				last[i] = fmt.Sprintf("%g", pts[idx[i]].Value)
				idx[i]++
			}
			row = append(row, last[i])
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
