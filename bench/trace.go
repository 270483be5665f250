package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around calls into the repo's public functions.
type Span struct {
	Name string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// ID is the op, tick or epoch number the span belongs to.
	ID uint64 `json:"id"`
}

// noSpan is the index begin returns on a nil tracer and the parent of roots.
const noSpan = -1

// sampleEvery is the query sampling stride: every control tick and epoch is
// recorded, data-plane calls every 1000th; all of them are counted.
const sampleEvery = 1000

// tracer keeps spans and counts in memory until the run ends. A nil *tracer
// is a valid, disabled tracer: every method is a no-op, so the wrappers cost
// one nil check with tracing off.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	counts map[string]*atomic.Int64
	// scope is the span new tick and run spans hang under (the current
	// scenario run, epoch or control tick); wrappers that cannot be handed a
	// parent explicitly read it.
	scope int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]*atomic.Int64), scope: noSpan, spans: make([]Span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, id uint64) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, StartNS: now, EndNS: now, Parent: parent, ID: id})
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return idx
}

// end closes a span.
func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[idx].EndNS = now
	t.mu.Unlock()
}

// counter returns the named call counter, creating it on first use.
// Wrappers on hot paths fetch it once and add to it lock-free; sampled
// wrappers use the running total to pick every 1000th call. A nil tracer
// hands out a throwaway counter.
func (t *tracer) counter(name string) *atomic.Int64 {
	if t == nil {
		return new(atomic.Int64)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counts[name]
	if c == nil {
		c = new(atomic.Int64)
		t.counts[name] = c
	}
	return c
}

// total reads a named counter.
func (t *tracer) total(name string) int64 { return t.counter(name).Load() }

// setScope names the span that wrappers without an explicit parent hang
// their spans under, and returns the previous one.
func (t *tracer) setScope(idx int) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	prev := t.scope
	t.scope = idx
	t.mu.Unlock()
	return prev
}

func (t *tracer) currentScope() int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scope
}

// spanCount returns the number of recorded spans.
func (t *tracer) spanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// LayerTime is the per-span-name roll-up of a trace.
type LayerTime struct {
	Name string `json:"name"`
	// Spans is how many spans carry the name; Calls is the counted calls
	// behind them (equal to Spans for unsampled names).
	Spans int   `json:"spans"`
	Calls int64 `json:"calls"`
	// TotalUS is the summed span duration, SelfUS the summed duration minus
	// the part covered by child spans.
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	// MeanUS is TotalUS / Spans. For a sampled name MeanUS × Calls estimates
	// the layer's whole cost.
	MeanUS float64 `json:"mean_us"`
}

// selfTimes computes, per span name, total and self time (span minus
// children). Children of one parent are sequential in every traced pass, so
// covered time is the plain sum of child durations, clamped to the parent.
func (t *tracer) selfTimes() []LayerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := make(map[string]*LayerTime)
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.EndNS - s.StartNS
		self := d - child[i]
		if self < 0 {
			self = 0
		}
		lt.Spans++
		lt.TotalUS += float64(d) / 1e3
		lt.SelfUS += float64(self) / 1e3
	}
	out := make([]LayerTime, 0, len(byName))
	for name, lt := range byName {
		lt.Calls = int64(lt.Spans)
		if c, ok := t.counts[name]; ok {
			lt.Calls = c.Load()
		}
		lt.MeanUS = lt.TotalUS / float64(lt.Spans)
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUS > out[j].SelfUS })
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Layers   []LayerTime      `json:"layers"`
	Counts   map[string]int64 `json:"counts"`
	Spans    []Span           `json:"spans"`
}

// write stores the spans, counts and self-time table under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	layers := t.selfTimes()
	t.mu.Lock()
	counts := make(map[string]int64, len(t.counts))
	for name, c := range t.counts {
		counts[name] = c.Load()
	}
	tf := traceFile{Workload: workload, Seed: seed, Layers: layers, Counts: counts, Spans: t.spans}
	b, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, b, 0o644)
}
