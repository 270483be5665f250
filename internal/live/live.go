package live

import (
	"fmt"
	"sync"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/stage"
)

// Options configures a cluster.
type Options struct {
	// Cores is the chip size (default 16).
	Cores int
	// Model is the per-core power model (default cmp.DefaultModel()).
	Model cmp.PowerModel
	// Budget is the power budget (required).
	Budget cmp.Watts
	// TimeScale maps virtual duration to wall duration: wall = virtual ×
	// TimeScale. 0.01 runs a 900-virtual-second experiment in 9 wall
	// seconds. Default 1.0.
	TimeScale float64
}

// StageSpec describes one live stage.
type StageSpec struct {
	Name      string
	Kind      stage.Kind
	Profile   cmp.SpeedupProfile
	Instances int
	Level     cmp.Level
}

// Cluster is a running live deployment. It implements core.System, so any
// control policy can drive it.
type Cluster struct {
	opts  Options
	start time.Time

	mu     sync.Mutex
	chip   *cmp.Chip
	stages []*Stage
	closed bool

	submitted uint64
	completed uint64

	onComplete []func(*query.Query)

	wg sync.WaitGroup
}

// NewCluster builds and starts the stages.
func NewCluster(opts Options, specs []StageSpec) (*Cluster, error) {
	if opts.Cores == 0 {
		opts.Cores = 16
	}
	if opts.Model == nil {
		opts.Model = cmp.DefaultModel()
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("live: cluster needs a positive power budget")
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1
	}
	if opts.TimeScale < 0 {
		return nil, fmt.Errorf("live: negative time scale")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("live: cluster needs at least one stage")
	}
	c := &Cluster{
		opts:  opts,
		start: time.Now(),
		chip:  cmp.NewChip(opts.Cores, opts.Model, opts.Budget),
	}
	names := make(map[string]bool)
	for i, spec := range specs {
		if spec.Name == "" || spec.Profile == nil || spec.Instances < 1 || !spec.Level.Valid() {
			return nil, fmt.Errorf("live: invalid spec for stage %d", i)
		}
		if names[spec.Name] {
			return nil, fmt.Errorf("live: duplicate stage name %q", spec.Name)
		}
		names[spec.Name] = true
		st := &Stage{cluster: c, index: i, spec: spec}
		c.stages = append(c.stages, st)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.stages {
		for j := 0; j < st.spec.Instances; j++ {
			if _, err := st.launchLocked(st.spec.Level); err != nil {
				return nil, fmt.Errorf("live: stage %s instance %d: %w", st.spec.Name, j, err)
			}
		}
	}
	return c, nil
}

// Now returns the virtual time since cluster start.
func (c *Cluster) Now() time.Duration {
	return time.Duration(float64(time.Since(c.start)) / c.opts.TimeScale)
}

// wall converts a virtual duration to wall time.
func (c *Cluster) wall(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.opts.TimeScale)
}

// PowerModel implements core.System.
func (c *Cluster) PowerModel() cmp.PowerModel { return c.opts.Model }

// Budget implements core.System.
func (c *Cluster) Budget() cmp.Watts { return c.chip.Budget() }

// Draw implements core.System.
func (c *Cluster) Draw() cmp.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chip.Draw()
}

// Headroom implements core.System.
func (c *Cluster) Headroom() cmp.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chip.Headroom()
}

// FreeCores implements core.System.
func (c *Cluster) FreeCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chip.Free()
}

// Quarantined implements core.System. The in-process cluster cannot lose a
// stage (instances are goroutines in this process); nothing is quarantined.
func (c *Cluster) Quarantined() []core.StageControl { return nil }

// Stages implements core.System.
func (c *Cluster) Stages() []core.StageControl {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.StageControl, len(c.stages))
	for i, st := range c.stages {
		out[i] = st
	}
	return out
}

// StageByName returns a live stage, or nil.
func (c *Cluster) StageByName(name string) *Stage {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.stages {
		if st.spec.Name == name {
			return st
		}
	}
	return nil
}

// OnComplete registers a completion callback. Callbacks run outside the
// cluster lock on the completing instance's goroutine.
func (c *Cluster) OnComplete(fn func(*query.Query)) {
	if fn == nil {
		panic("live: nil completion callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onComplete = append(c.onComplete, fn)
}

// Submit injects a query into the first stage.
func (c *Cluster) Submit(q *query.Query) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("live: cluster closed")
	}
	if len(q.Work) != len(c.stages) {
		c.mu.Unlock()
		return fmt.Errorf("live: query %d carries work for %d stages, pipeline has %d", q.ID, len(q.Work), len(c.stages))
	}
	c.submitted++
	c.stages[0].admitLocked(q)
	c.mu.Unlock()
	return nil
}

// Submitted returns the number of injected queries.
func (c *Cluster) Submitted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitted
}

// Completed returns the number of finished queries.
func (c *Cluster) Completed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed
}

// InFlight returns queries currently inside the pipeline.
func (c *Cluster) InFlight() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitted - c.completed
}

// advanceLocked moves a finished query onward; caller holds c.mu. Returns
// callbacks to run after the lock is released (with the query) when the
// query completed the pipeline.
func (c *Cluster) advanceLocked(q *query.Query, idx int) []func(*query.Query) {
	if idx+1 < len(c.stages) {
		c.stages[idx+1].admitLocked(q)
		return nil
	}
	q.Done = c.Now()
	c.completed++
	cbs := make([]func(*query.Query), len(c.onComplete))
	copy(cbs, c.onComplete)
	return cbs
}

// Close stops all instances and waits for their goroutines. In-flight
// queries are abandoned.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, st := range c.stages {
		for _, in := range st.instances {
			in.stopLocked()
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Interface conformance.
var (
	_ core.System       = (*Cluster)(nil)
	_ core.StageControl = (*Stage)(nil)
	_ core.Instance     = (*Instance)(nil)
)
