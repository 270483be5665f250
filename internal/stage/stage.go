package stage

import (
	"fmt"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
)

// Kind distinguishes the stage organizations the paper evaluates.
type Kind int

const (
	// Pipeline stages serve each query on exactly one instance chosen by the
	// dispatcher (Sirius and NLP stages).
	Pipeline Kind = iota
	// FanOut stages send each query to every instance and complete when the
	// slowest branch finishes (Web Search leaves). Fan-out instances hold
	// index shards, so cloning and withdrawing them is not allowed; power
	// management uses DVFS only.
	FanOut
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Pipeline:
		return "pipeline"
	case FanOut:
		return "fanout"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one stage of an application.
type Spec struct {
	Name      string
	Kind      Kind
	Profile   cmp.SpeedupProfile // the service's offline frequency profile
	Instances int                // initial instance count (≥ 1)
	Level     cmp.Level          // initial frequency level
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("stage: spec needs a name")
	}
	if s.Profile == nil {
		return fmt.Errorf("stage %s: spec needs a speedup profile", s.Name)
	}
	if s.Instances < 1 {
		return fmt.Errorf("stage %s: needs at least one instance", s.Name)
	}
	if !s.Level.Valid() {
		return fmt.Errorf("stage %s: invalid level %d", s.Name, int(s.Level))
	}
	return nil
}

// Stage is a pool of service instances implementing one processing step.
type Stage struct {
	sys        *System
	index      int
	spec       Spec
	instances  []*Instance
	active     []*Instance // the non-draining instances; nil when stale
	dispatcher Dispatcher
	seq        int // instance name sequence, monotonically increasing
}

// Name returns the stage name.
func (st *Stage) Name() string { return st.spec.Name }

// Index returns the stage's position in the pipeline.
func (st *Stage) Index() int { return st.index }

// Kind returns the stage organization.
func (st *Stage) Kind() Kind { return st.spec.Kind }

// Profile returns the service's speedup profile.
func (st *Stage) Profile() cmp.SpeedupProfile { return st.spec.Profile }

// Instances returns the live (non-retired) instances, including draining
// ones.
func (st *Stage) Instances() []*Instance {
	out := make([]*Instance, len(st.instances))
	copy(out, st.instances)
	return out
}

// Active returns the instances that accept new queries.
func (st *Stage) Active() []*Instance {
	return append([]*Instance(nil), st.activeSet()...)
}

// activeSet returns the stage's own list of the instances that accept new
// queries, for the per-query path; callers must not modify or keep it
// (Active hands out copies). The list is rebuilt, into a fresh array, on
// the first use after the membership changed: Launch, Withdraw and remove
// drop it.
func (st *Stage) activeSet() []*Instance {
	if st.active == nil {
		for _, in := range st.instances {
			if !in.draining {
				st.active = append(st.active, in)
			}
		}
	}
	return st.active
}

// SetDispatcher replaces the stage's dispatch policy.
func (st *Stage) SetDispatcher(d Dispatcher) {
	if d == nil {
		panic("stage: nil dispatcher")
	}
	st.dispatcher = d
}

// admit routes an incoming query into the stage.
func (st *Stage) admit(q *query.Query) {
	switch st.spec.Kind {
	case Pipeline:
		active := st.activeSet()
		if len(active) == 0 {
			panic(fmt.Sprintf("stage %s: no active instance to serve query %d", st.spec.Name, q.ID))
		}
		in := st.dispatcher.Pick(active)
		in.enqueue(q)
	case FanOut:
		active := st.activeSet()
		if len(active) == 0 {
			panic(fmt.Sprintf("stage %s: no active instance to serve query %d", st.spec.Name, q.ID))
		}
		q.SetPending(len(active))
		for _, in := range active {
			in.enqueue(q)
		}
	default:
		panic(fmt.Sprintf("stage %s: unknown kind %v", st.spec.Name, st.spec.Kind))
	}
}

// queryDone is called by an instance when it finishes serving q.
func (st *Stage) queryDone(q *query.Query) {
	if st.spec.Kind == FanOut && !q.BranchDone() {
		return // other branches still outstanding
	}
	st.sys.advance(q, st.index)
}

// Launch adds a new instance to the stage at the given level, claiming a core
// within the chip budget. Used both at setup and by instance boosting.
func (st *Stage) Launch(level cmp.Level) (*Instance, error) {
	if st.spec.Kind == FanOut && len(st.instances) > 0 && st.sys.started {
		return nil, fmt.Errorf("stage %s: cannot launch into a fan-out stage at runtime", st.spec.Name)
	}
	core, err := st.sys.chip.Allocate(level)
	if err != nil {
		return nil, err
	}
	st.seq++
	in := newInstance(st, fmt.Sprintf("%s_%d", st.spec.Name, st.seq), len(st.instances), core, level)
	st.instances = append(st.instances, in)
	st.active = nil
	return in, nil
}

// Clone implements instance boosting (§5.1, Figure 7a): a new instance is
// launched at the same frequency as the bottleneck instance src, and half of
// the queries queued at src are offloaded to the clone (work stealing). The
// clone also shares future load through the dispatcher.
func (st *Stage) Clone(src *Instance) (*Instance, error) {
	if src.stage != st {
		return nil, fmt.Errorf("stage %s: clone source %s belongs to stage %s", st.spec.Name, src.name, src.stage.spec.Name)
	}
	if st.spec.Kind == FanOut {
		return nil, fmt.Errorf("stage %s: fan-out instances hold shards and cannot be cloned", st.spec.Name)
	}
	if src.retired {
		return nil, fmt.Errorf("stage %s: clone source %s is retired", st.spec.Name, src.name)
	}
	in, err := st.Launch(src.level)
	if err != nil {
		return nil, err
	}
	in.boosted = true
	// Offload the tail half of src's queue. Queue-enter timestamps travel
	// with the queries so queuing time is still measured from the original
	// enqueue.
	if steal := src.waiting() / 2; steal > 0 {
		keep := len(src.queue) - steal
		in.push(src.queue[keep:]...)
		clear(src.queue[keep:])
		src.queue = src.queue[:keep]
		in.maybeStart()
	}
	return in, nil
}

// Withdraw drains instance in and releases its core (§6.2). Its queued
// queries are redirected to target (typically the fastest instance of the
// stage); if target is nil the dispatcher picks among the remaining active
// instances. The withdraw completes immediately when the instance is idle,
// otherwise after its in-flight query finishes. The last active instance of
// a stage cannot be withdrawn.
func (st *Stage) Withdraw(in *Instance, target *Instance) error {
	if in.stage != st {
		return fmt.Errorf("stage %s: withdraw of foreign instance %s", st.spec.Name, in.name)
	}
	if st.spec.Kind == FanOut {
		return fmt.Errorf("stage %s: fan-out instances cannot be withdrawn", st.spec.Name)
	}
	if in.draining || in.retired {
		return fmt.Errorf("stage %s: instance %s already withdrawing", st.spec.Name, in.name)
	}
	others := 0
	for _, o := range st.instances {
		if o != in && !o.draining {
			others++
		}
	}
	if others == 0 {
		return fmt.Errorf("stage %s: cannot withdraw the last active instance", st.spec.Name)
	}
	in.draining = true
	st.active = nil
	// Redirect queued load.
	if in.waiting() > 0 {
		if target == nil || target == in || target.draining {
			target = st.dispatcher.Pick(st.activeSet())
		}
		target.push(in.queue[in.head:]...)
		in.queue, in.head = nil, 0
		target.maybeStart()
	}
	if !in.inService {
		in.finalizeWithdraw()
	}
	return nil
}

// remove detaches a retired instance from the stage.
func (st *Stage) remove(in *Instance) {
	for i, o := range st.instances {
		if o == in {
			st.instances = append(st.instances[:i], st.instances[i+1:]...)
			st.active = nil
			return
		}
	}
}
