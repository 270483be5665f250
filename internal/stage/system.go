package stage

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/sim"
)

// System wires an application's stages to the simulation engine and the
// chip. Queries submitted to the system flow through the stages in order;
// completed queries are delivered, records attached, to the registered
// completion callbacks — in the paper's architecture, the hand-off of the
// query-carried latency statistics to the Command Center.
type System struct {
	eng     *sim.Engine
	chip    *cmp.Chip
	stages  []*Stage
	started bool

	onComplete []func(*query.Query)
	hopDelay   func(from, to int) time.Duration

	submitted uint64
	completed uint64
}

// NewSystem builds the stages described by specs, allocating their initial
// instances on the chip. It fails if the initial configuration does not fit
// the chip's cores or power budget.
func NewSystem(eng *sim.Engine, chip *cmp.Chip, specs []Spec) (*System, error) {
	if eng == nil || chip == nil {
		panic("stage: NewSystem requires an engine and a chip")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("stage: application needs at least one stage")
	}
	sys := &System{eng: eng, chip: chip}
	names := make(map[string]bool)
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if names[spec.Name] {
			return nil, fmt.Errorf("stage: duplicate stage name %q", spec.Name)
		}
		names[spec.Name] = true
		st := &Stage{sys: sys, index: i, spec: spec, dispatcher: JoinShortestQueue{}}
		for j := 0; j < spec.Instances; j++ {
			if _, err := st.Launch(spec.Level); err != nil {
				return nil, fmt.Errorf("stage %s instance %d: %w", spec.Name, j, err)
			}
		}
		sys.stages = append(sys.stages, st)
	}
	sys.started = true
	return sys, nil
}

// Engine returns the simulation engine driving the system.
func (s *System) Engine() *sim.Engine { return s.eng }

// Chip returns the chip the system's instances run on.
func (s *System) Chip() *cmp.Chip { return s.chip }

// Stages returns the pipeline stages in order.
func (s *System) Stages() []*Stage {
	out := make([]*Stage, len(s.stages))
	copy(out, s.stages)
	return out
}

// Stage returns the stage with the given name, or nil.
func (s *System) Stage(name string) *Stage {
	for _, st := range s.stages {
		if st.spec.Name == name {
			return st
		}
	}
	return nil
}

// OnComplete registers a callback invoked when a query leaves the last
// stage. Callbacks run synchronously, in registration order, within the
// simulation event that completed the query, and keep nothing of q (Records
// and Work included) past their return: once the last one has returned the
// query goes back to whoever made it (query.Query.Release) and may be the
// next arrival. q.Clone() what you keep.
func (s *System) OnComplete(fn func(*query.Query)) {
	if fn == nil {
		panic("stage: nil completion callback")
	}
	s.onComplete = append(s.onComplete, fn)
}

// Submit injects a query into the first stage at the current virtual time.
// The query must carry work for every stage.
func (s *System) Submit(q *query.Query) {
	if len(q.Work) != len(s.stages) {
		panic(fmt.Sprintf("stage: query %d carries work for %d stages, pipeline has %d", q.ID, len(q.Work), len(s.stages)))
	}
	s.submitted++
	s.stages[0].admit(q)
}

// Submitted returns the number of queries injected so far.
func (s *System) Submitted() uint64 { return s.submitted }

// Completed returns the number of queries that finished all stages.
func (s *System) Completed() uint64 { return s.completed }

// InFlight returns the number of queries currently inside the pipeline.
func (s *System) InFlight() uint64 { return s.submitted - s.completed }

// SetHopDelay installs a network-delay model between stages: when a query
// leaves stage `from`, its admission into stage `to` is delayed by
// fn(from, to). The paper's prototype runs all stages on one CMP and
// excludes network delays, but notes (§8.5) the joint design extends to
// include them; this hook is that extension. A nil fn removes the model.
func (s *System) SetHopDelay(fn func(from, to int) time.Duration) {
	s.hopDelay = fn
}

// advance moves a query past stage idx: into the next stage, or out of the
// pipeline.
func (s *System) advance(q *query.Query, idx int) {
	if idx+1 < len(s.stages) {
		if s.hopDelay != nil {
			if d := s.hopDelay(idx, idx+1); d > 0 {
				s.eng.Schedule(d, func() { s.stages[idx+1].admit(q) })
				return
			}
		}
		s.stages[idx+1].admit(q)
		return
	}
	q.Done = s.eng.Now()
	s.completed++
	for _, fn := range s.onComplete {
		fn(q)
	}
	q.Release()
}

// TotalInstances counts live instances across all stages.
func (s *System) TotalInstances() int {
	n := 0
	for _, st := range s.stages {
		n += len(st.instances)
	}
	return n
}

// Drain reports whether the pipeline is empty (no in-flight queries).
func (s *System) Drain() bool { return s.InFlight() == 0 }

// WorkFor is a convenience for tests and generators: it shapes a per-stage
// work matrix matching the pipeline layout, drawing one branch per fan-out
// instance and a single branch for pipeline stages, using the supplied draw
// function.
func (s *System) WorkFor(draw func(stageIdx, branch int) time.Duration) [][]time.Duration {
	work := make([][]time.Duration, len(s.stages))
	for i, st := range s.stages {
		branches := 1
		if st.spec.Kind == FanOut {
			branches = len(st.activeSet())
		}
		row := make([]time.Duration, branches)
		for b := range row {
			row[b] = draw(i, b)
		}
		work[i] = row
	}
	return work
}
