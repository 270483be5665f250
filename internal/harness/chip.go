package harness

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
	"powerchief/internal/workload"
)

// appChip is one application placed on a shared engine: its chip partition
// under a grant, its stage pipeline, the DES view, aggregator and policy its
// control loop reads, and its latency summary. Run places one; RunMulti
// places one per tenant. The engine, the control loops, the sampler and the
// drain belong to the runner, so any number of appChips share one clock.
type appChip struct {
	spec    Tenant
	chip    *cmp.Chip
	sys     *stage.System
	view    core.System
	agg     *core.Aggregator
	policy  core.Policy
	latency *stats.Summary
	gen     *workload.Generator // nil until start
}

// newAppChip places a defaulted tenant on eng: a chip of t.Cores under
// grant, the pipeline specs describes, then the view, the aggregator, a fresh
// policy and the one completion tap (aggregator ingest + latency summary).
// It arms no event; start does.
func newAppChip(eng *sim.Engine, t Tenant, specs []stage.Spec, grant cmp.Watts) (*appChip, error) {
	chip := cmp.NewChip(t.Cores, cmp.DefaultModel(), grant)
	sys, err := stage.NewSystem(eng, chip, specs)
	if err != nil {
		return nil, fmt.Errorf("harness: building %q: %w", t.Name, err)
	}
	agg := core.NewAggregator(t.StatsWindow, eng.Now)
	c := &appChip{spec: t, chip: chip, sys: sys, view: core.NewDESView(sys),
		agg: agg, policy: t.Policy(), latency: stats.NewSummary()}
	sys.OnComplete(c.complete)
	return c, nil
}

// ingest is how the completion tap folds a query into the aggregator; the
// records-identity test swaps in one that loses a record.
var ingest = (*core.Aggregator).Ingest

func (c *appChip) complete(q *query.Query) {
	ingest(c.agg, q)
	c.latency.Observe(q.Latency())
}

// checkRecords is the records identity: every latency record the pipeline
// handed to the completion tap reached the aggregator, with the same Σ
// queuing and Σ serving. Run and RunMulti check it at the end of every run.
func (c *appChip) checkRecords() error {
	emitted, ingested := c.sys.Emitted(), c.agg.Records()
	if emitted == ingested {
		return nil
	}
	return fmt.Errorf("harness: %q: the engine emitted %v but the aggregator ingested %v (short by %d records, %v queuing, %v serving)",
		c.spec.Name, emitted, ingested, int64(emitted.Records-ingested.Records),
		emitted.Queuing-ingested.Queuing, emitted.Serving-ingested.Serving)
}

// start arms the refilling generator: the tenant's source at its reference
// capacity, work drawn for its initial layout, every draw from seed, until
// horizon.
func (c *appChip) start(seed int64, horizon time.Duration) {
	t := &c.spec
	src := t.Source(t.App.CapacityQPS(t.RefInstances, t.RefLevel))
	// Size the latency summary for the arrivals the run can have — MaxRate
	// over the horizon, plus four standard deviations of the Poisson count.
	arrivals := src.MaxRate() * horizon.Seconds()
	c.latency.Grow(int(arrivals + 4*math.Sqrt(arrivals)))
	branches := append([]int(nil), t.Instances...)
	c.gen = workload.NewRefillingGenerator(c.sys.Engine(), c.sys, src, func(into [][]time.Duration, r *rand.Rand) [][]time.Duration {
		return t.App.DrawWorkInto(into, r, branches)
	}, rand.New(rand.NewSource(seed)), horizon)
	c.gen.Start()
}

// configDraw returns what a stage configuration draws on model, and what it
// draws with every instance at the ladder floor: the budget Run derives, the
// split and floor RunMulti derives.
func configDraw(specs []stage.Spec, model cmp.PowerModel) (draw, minDraw cmp.Watts) {
	for _, spec := range specs {
		draw += cmp.Watts(spec.Instances) * model.Power(spec.Level)
		minDraw += cmp.Watts(spec.Instances) * model.MinPower()
	}
	return draw, minDraw
}

// runHorizon runs eng through the generation horizon, then drains in steps
// of at most step until drained reports true or the clock reaches
// horizon×(1+drainFactor). A zero drainFactor reads as 1.
func runHorizon(eng *sim.Engine, horizon time.Duration, drainFactor float64, step time.Duration, drained func() bool) {
	if drainFactor == 0 {
		drainFactor = 1
	}
	eng.RunUntil(horizon)
	deadline := horizon + time.Duration(float64(horizon)*drainFactor)
	for eng.Now() < deadline && !drained() {
		eng.RunUntil(min(eng.Now()+step, deadline))
	}
}
