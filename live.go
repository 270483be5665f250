package powerchief

import (
	"time"

	"powerchief/internal/core"
	"powerchief/internal/live"
	"powerchief/internal/query"
)

// The live surface runs the framework as a real runtime — goroutine workers
// in (optionally compressed) wall-clock time — instead of the simulator.
// The same policies drive both.

type (
	// LiveCluster is a running real-time deployment.
	LiveCluster = live.Cluster
	// LiveOptions configures a live cluster.
	LiveOptions = live.Options
	// Query is a request flowing through the pipeline.
	Query = query.Query
	// Aggregator is the Command Center's statistics store.
	Aggregator = core.Aggregator
)

// NewLiveCluster starts a live deployment of the application: instances[i]
// workers for stage i (nil = one each), all at the given level.
func NewLiveCluster(a App, instances []int, level Level, opts LiveOptions) (*LiveCluster, error) {
	if instances == nil {
		instances = make([]int, len(a.Stages))
		for i := range instances {
			instances[i] = 1
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	specs := make([]live.StageSpec, len(a.Stages))
	for i, sp := range a.Stages {
		n := 1
		if i < len(instances) {
			n = instances[i]
		}
		specs[i] = live.StageSpec{
			Name:      sp.Name,
			Kind:      sp.Kind,
			Profile:   sp.Profile(),
			Instances: n,
			Level:     level,
		}
	}
	return live.NewCluster(opts, specs)
}

// NewAggregatorFor builds a Command Center statistics store reading the
// cluster's clock, with the default 25 s moving window. Live clusters run
// unbounded, so the aggregator uses the constant-memory bucketed windows:
// ingest stays O(1) per record and the footprint does not grow with load
// (the DES harness keeps exact windows for deterministic reproduction).
func NewAggregatorFor(c *LiveCluster) *Aggregator {
	return core.NewAggregatorOptions(25*time.Second, c.Now, core.AggregatorOptions{
		Window: core.WindowBucketed,
	})
}

// NewQuery creates a query carrying the given per-stage demands (one row
// per stage; fan-out stages take one entry per branch).
func NewQuery(id uint64, arrival time.Duration, work [][]time.Duration) *Query {
	return query.New(query.ID(id), arrival, work)
}
