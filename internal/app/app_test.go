package app

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"powerchief/internal/cmp"
	"powerchief/internal/stage"
)

func TestBuiltinAppsValid(t *testing.T) {
	for _, a := range []App{Sirius(), NLP(), WebSearch()} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sirius", "nlp", "websearch"} {
		a, err := ByName(name)
		if err != nil || a.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, a.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSiriusShape(t *testing.T) {
	s := Sirius()
	if len(s.Stages) != 3 {
		t.Fatalf("Sirius has %d stages, want 3 (ASR, IMM, QA)", len(s.Stages))
	}
	names := []string{"ASR", "IMM", "QA"}
	for i, want := range names {
		if s.Stages[i].Name != want {
			t.Errorf("stage %d = %s, want %s", i, s.Stages[i].Name, want)
		}
	}
	// QA dominates; IMM is the lightest — the Figure 2 premise.
	if s.HeaviestStage() != 2 {
		t.Errorf("heaviest Sirius stage = %d, want QA", s.HeaviestStage())
	}
	if s.Stages[1].Work.Mean() >= s.Stages[0].Work.Mean() {
		t.Error("IMM should be lighter than ASR")
	}
}

func TestNLPShape(t *testing.T) {
	n := NLP()
	if n.HeaviestStage() != 1 {
		t.Errorf("heaviest NLP stage = %d, want PSG", n.HeaviestStage())
	}
}

func TestWebSearchShape(t *testing.T) {
	w := WebSearch()
	if w.Stages[0].Kind != stage.Pipeline {
		t.Error("Web Search leaves are a replica pool (pipeline stage)")
	}
	if w.Stages[1].Kind != stage.Pipeline {
		t.Error("Web Search aggregation must be a pipeline stage")
	}
	f := WebSearchFanOut()
	if f.Stages[0].Kind != stage.FanOut {
		t.Error("fan-out variant leaves must fan out")
	}
	if f.Stages[0].Skew <= 0 {
		t.Error("fan-out shards should be skewed")
	}
	if err := f.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWorkModelMean(t *testing.T) {
	w := WorkModel{Median: 100 * time.Millisecond, Sigma: 0.5}
	want := 100 * math.Exp(0.125)
	if got := w.Mean(); math.Abs(got.Seconds()*1000-want) > 1e-6 {
		t.Errorf("Mean = %v, want %.3fms", got, want)
	}
	// Zero sigma degenerates to the median.
	d := WorkModel{Median: 42 * time.Millisecond}
	if d.Mean() != 42*time.Millisecond || d.Draw(rand.New(rand.NewSource(1))) != 42*time.Millisecond {
		t.Error("degenerate model should return the median")
	}
}

func TestWorkModelDrawStatistics(t *testing.T) {
	w := WorkModel{Median: 100 * time.Millisecond, Sigma: 0.4}
	rng := rand.New(rand.NewSource(42))
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += w.Draw(rng).Seconds()
	}
	got := sum / float64(n) * 1000
	want := w.Mean().Seconds() * 1000
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("empirical mean %.2fms deviates from analytic %.2fms", got, want)
	}
}

func TestSpecsDefaultsAndMismatch(t *testing.T) {
	s := Sirius()
	specs, err := s.Specs(nil, cmp.MidLevel)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.Instances != 1 || sp.Level != cmp.MidLevel {
			t.Errorf("default spec %s = %d inst @%v", sp.Name, sp.Instances, sp.Level)
		}
		if err := sp.Validate(); err != nil {
			t.Error(err)
		}
	}
	if _, err := s.Specs([]int{1, 2}, cmp.MidLevel); err == nil {
		t.Error("mismatched instance-count length accepted")
	}
	specs, err = s.Specs([]int{4, 2, 5}, cmp.MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	if specs[2].Instances != 5 {
		t.Error("explicit instance counts not honoured")
	}
}

func TestDrawWorkShape(t *testing.T) {
	w := WebSearchFanOut()
	rng := rand.New(rand.NewSource(7))
	work := w.DrawWork(rng, []int{10, 1})
	if len(work) != 2 || len(work[0]) != 10 || len(work[1]) != 1 {
		t.Fatalf("work shape = (%d,%d)", len(work[0]), len(work[1]))
	}
	// Zero branch count clamps to one.
	work = w.DrawWork(rng, []int{0, 1})
	if len(work[0]) != 1 {
		t.Error("zero fan-out branches not clamped to 1")
	}
	// Pipeline stages always draw a single branch.
	s := Sirius()
	work = s.DrawWork(rng, []int{9, 9, 9})
	for i := range work {
		if len(work[i]) != 1 {
			t.Errorf("pipeline stage %d drew %d branches", i, len(work[i]))
		}
	}
}

func TestCapacityDominatedByHeaviestStage(t *testing.T) {
	s := Sirius()
	cap1 := s.CapacityQPS([]int{1, 1, 1}, cmp.MidLevel)
	qa := s.Stages[2]
	want := 1 / qa.MeanServing(cmp.MidLevel).Seconds()
	if math.Abs(cap1-want)/want > 1e-9 {
		t.Errorf("capacity = %v, want %v (QA-bound)", cap1, want)
	}
	// Doubling QA instances raises capacity; it becomes ASR-bound.
	cap2 := s.CapacityQPS([]int{1, 1, 2}, cmp.MidLevel)
	if cap2 <= cap1 {
		t.Error("extra QA instance did not raise capacity")
	}
	// Higher frequency raises capacity.
	cap3 := s.CapacityQPS([]int{1, 1, 1}, cmp.MaxLevel)
	if cap3 <= cap1 {
		t.Error("higher frequency did not raise capacity")
	}
}

func TestFanOutCapacityIgnoresLeafCount(t *testing.T) {
	w := WebSearchFanOut()
	c10 := w.CapacityQPS([]int{10, 1}, cmp.MaxLevel)
	c20 := w.CapacityQPS([]int{20, 1}, cmp.MaxLevel)
	if math.Abs(c10-c20) > 1e-9 {
		t.Error("fan-out capacity should not scale with leaf count (every leaf serves every query)")
	}
}

func TestValidateRejectsBadApps(t *testing.T) {
	good := StageProfile{Name: "S", Work: WorkModel{Median: time.Millisecond}}
	cases := map[string]App{
		"no name":    {Stages: []StageProfile{good}},
		"no stages":  {Name: "x"},
		"bad median": {Name: "x", Stages: []StageProfile{{Name: "S"}}},
		"bad sigma":  {Name: "x", Stages: []StageProfile{{Name: "S", Work: WorkModel{Median: 1, Sigma: -1}}}},
		"bad mem":    {Name: "x", Stages: []StageProfile{{Name: "S", Work: WorkModel{Median: 1}, MemBound: 2}}},
		"no stage name": {Name: "x", Stages: []StageProfile{
			{Work: WorkModel{Median: 1}},
		}},
	}
	for name, a := range cases {
		if a.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: draws are always positive and the profile's mean serving time
// decreases (weakly) with frequency.
func TestPropertyDrawPositiveAndServingMonotone(t *testing.T) {
	f := func(seed int64, li uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, a := range []App{Sirius(), NLP(), WebSearch()} {
			for _, sp := range a.Stages {
				if sp.Work.Draw(rng) <= 0 {
					return false
				}
				l := cmp.Level(int(li) % (cmp.NumLevels - 1))
				if sp.MeanServing(l+1) > sp.MeanServing(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawWorkRowsShareOneArrayWithoutOverlap(t *testing.T) {
	w := WebSearchFanOut()
	work := w.DrawWork(rand.New(rand.NewSource(7)), []int{4, 1})
	leaf, agg := work[0], work[1]
	if len(leaf) != 4 || len(agg) != 1 {
		t.Fatalf("work shape = (%d,%d), want (4,1)", len(leaf), len(agg))
	}
	// One array: the second row starts where the first ends.
	if unsafe.Pointer(&agg[0]) != unsafe.Add(unsafe.Pointer(&leaf[0]), 4*unsafe.Sizeof(leaf[0])) {
		t.Error("rows of one DrawWork are not consecutive pieces of one array")
	}
	// No overlap: each row's capacity stops at its own length, so an append
	// to one row cannot write into the next.
	if cap(leaf) != 4 || cap(agg) != 1 {
		t.Errorf("row capacities = (%d,%d), want (4,1)", cap(leaf), cap(agg))
	}
	want := agg[0]
	_ = append(leaf, time.Hour)
	if agg[0] != want {
		t.Error("append to the leaf row overwrote the aggregation row")
	}
}

// TestDrawWorkIntoRefillsAMatchingMatrix: handed a matrix of its own shape,
// DrawWorkInto refills it in place — no allocation, the draws DrawWork makes
// from the same seed, in the same order — and anything else gets a fresh one.
func TestDrawWorkIntoRefillsAMatchingMatrix(t *testing.T) {
	for _, c := range []struct {
		name     string
		app      App
		branches []int
	}{
		{"pipeline", Sirius(), []int{1, 1, 2}},
		{"fan-out with skew", WebSearchFanOut(), []int{4, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fresh, refill := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			into := c.app.DrawWork(rand.New(rand.NewSource(99)), c.branches)
			first := &into[0][0]
			for i := 0; i < 50; i++ {
				want := c.app.DrawWork(fresh, c.branches)
				got := c.app.DrawWorkInto(into, refill, c.branches)
				if &got[0][0] != first {
					t.Fatalf("draw %d: a matching matrix was not refilled in place", i)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("draw %d: refilled %v, DrawWork from the same seed %v", i, got, want)
				}
			}
			if n := testing.AllocsPerRun(100, func() { c.app.DrawWorkInto(into, refill, c.branches) }); n != 0 {
				t.Errorf("refilling a matching matrix cost %.0f allocations, want 0", n)
			}
		})
	}

	// A matrix of another shape — other row widths, other stage count, none
	// at all — is left alone and a fresh one comes back, with the same draws.
	w := WebSearchFanOut()
	for name, into := range map[string][][]time.Duration{
		"other width":  w.DrawWork(rand.New(rand.NewSource(1)), []int{3, 1}),
		"other stages": Sirius().DrawWork(rand.New(rand.NewSource(1)), []int{1, 1, 1}),
		"nil":          nil,
	} {
		var before [][]time.Duration
		for _, row := range into {
			before = append(before, append([]time.Duration(nil), row...))
		}
		want := w.DrawWork(rand.New(rand.NewSource(7)), []int{4, 1})
		got := w.DrawWorkInto(into, rand.New(rand.NewSource(7)), []int{4, 1})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fell back to %v, DrawWork from the same seed %v", name, got, want)
		}
		if !reflect.DeepEqual(into, before) {
			t.Errorf("%s: a matrix that did not fit was written to", name)
		}
	}
}
