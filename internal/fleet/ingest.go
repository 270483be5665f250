package fleet

import (
	"sync"
	"time"

	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
)

// fleetIngest is the coordinator's side of delta-batched node statistics:
// heartbeat-carried deltas merge into one fleet-wide latency histogram
// (exact — every node folds on the shared bin layout), booked per node so
// lost heartbeat windows are counted, not silently absorbed.
type fleetIngest struct {
	recv stats.DeltaReceiver

	mu   sync.Mutex
	hist *stats.Histogram
}

// foldIngest merges one node's heartbeat delta, if the report carried one.
// Called from the Adjust heartbeat loop for fenced-and-accepted reports only
// — the same ingest discipline as the bottleneck metric. A delta that does
// not validate or merge is booked as a lost flush.
func (c *Coordinator) foldIngest(node string, d *stats.Delta) {
	if d.Empty() {
		return
	}
	err := d.Validate()
	if err == nil && d.E2E != nil {
		var h *stats.Histogram
		if h, err = stats.FromDigest(d.E2E); err == nil {
			c.ingest.mu.Lock()
			err = c.ingest.hist.Merge(h)
			c.ingest.mu.Unlock()
		}
	}
	c.ingest.recv.Note(node, d, err == nil)
}

// IngestCounts returns the heartbeat-delta fold counters: deltas folded,
// completed queries they summarized, and flushes lost (each at most one
// heartbeat window of statistics).
func (c *Coordinator) IngestCounts() (deltas, queries, lost uint64) {
	return c.ingest.recv.Counts()
}

// FleetLatency returns the fleet-wide end-to-end latency distribution
// merged from node deltas: count, mean and the p-quantile. ok is false
// before any delta carried an E2E digest.
func (c *Coordinator) FleetLatency(p float64) (count uint64, mean, quantile time.Duration, ok bool) {
	c.ingest.mu.Lock()
	defer c.ingest.mu.Unlock()
	if c.ingest.hist.Count() == 0 {
		return 0, 0, 0, false
	}
	return c.ingest.hist.Count(), c.ingest.hist.Mean(), c.ingest.hist.Quantile(p), true
}

// RegisterIngestMetrics exports the fleet-wide ingest telemetry on reg.
func (c *Coordinator) RegisterIngestMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("powerchief_fleet_ingest_deltas_total",
		"Heartbeat-carried statistic deltas folded from fleet nodes.",
		func() float64 { d, _, _ := c.IngestCounts(); return float64(d) })
	reg.CounterFunc("powerchief_fleet_ingest_queries_total",
		"Completed queries summarized by folded node deltas.",
		func() float64 { _, q, _ := c.IngestCounts(); return float64(q) })
	reg.CounterFunc("powerchief_fleet_ingest_seq_gaps_total",
		"Node deltas lost (heartbeat windows that never arrived).",
		func() float64 { _, _, g := c.IngestCounts(); return float64(g) })
	reg.GaugeFunc("powerchief_fleet_latency_p99_seconds",
		"Fleet-wide p99 end-to-end latency merged from node deltas.",
		func() float64 {
			_, _, p99, ok := c.FleetLatency(0.99)
			if !ok {
				return 0
			}
			return p99.Seconds()
		})
	reg.GaugeFunc("powerchief_fleet_latency_mean_seconds",
		"Fleet-wide mean end-to-end latency merged from node deltas.",
		func() float64 {
			_, mean, _, ok := c.FleetLatency(0.99)
			if !ok {
				return 0
			}
			return mean.Seconds()
		})
}
