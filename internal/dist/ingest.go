package dist

import (
	"sync/atomic"
	"time"

	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
)

// ingestState is the center's side of statistics ingest, embedded in Center.
type ingestState struct {
	// recv books the folded deltas, per stage.
	recv stats.DeltaReceiver
	// traceRecords counts records received on the trace side channel: zero
	// unless a tracer is attached.
	traceRecords atomic.Uint64
	// lastDeltaNS is the center clock (ns) at the last delta fold, for the
	// staleness gauge.
	lastDeltaNS atomic.Int64
}

// configureIngest sends one stage service the center's flush sizes, at
// connect and again at every re-admission: what answers then may be a
// restarted process, flushing at the defaults and numbering from 1, so the
// stage's sequence tracking is re-armed with it.
func (c *Center) configureIngest(st *remoteStage) error {
	c.ingest.recv.Rearm(st.name)
	return st.client.CallRetry(MethodIngest, IngestArgs{
		Batch:      c.opts.IngestBatch,
		IntervalNS: int64(c.opts.IngestInterval),
	}, nil)
}

// foldDelta folds one stage-shipped delta into the aggregator. The center
// already counted each completion through finishQuery (and measures
// end-to-end latency itself), so the delta's query count feeds only the
// metrics, never the aggregator's ingested total.
func (c *Center) foldDelta(st *remoteStage, d *stats.Delta) error {
	if d.Empty() {
		return nil
	}
	queries := d.Queries
	d.Queries = 0 // completions were already counted at finishQuery
	err := c.agg.IngestDelta(d)
	d.Queries = queries
	c.ingest.recv.Note(st.name, d, err == nil)
	if err == nil {
		c.ingest.lastDeltaNS.Store(int64(c.Now()))
	}
	return err
}

// IngestCounts returns the lifetime counters: delta frames folded, completed
// queries they summarized, trace records received (zero without a tracer:
// statistics never travel as records), and lost flushes.
func (c *Center) IngestCounts() (deltas, deltaQueries, records, lost uint64) {
	deltas, deltaQueries, lost = c.ingest.recv.Counts()
	return deltas, deltaQueries, c.ingest.traceRecords.Load(), lost
}

// IngestStaleness returns the center-clock age of the newest folded delta,
// and false when no delta has been folded yet.
func (c *Center) IngestStaleness() (time.Duration, bool) {
	last := c.ingest.lastDeltaNS.Load()
	if last == 0 {
		return 0, false
	}
	return c.Now() - time.Duration(last), true
}

// RegisterIngestMetrics exports the ingest telemetry on reg: fold counters,
// lost flushes, and the staleness gauge (seconds since the newest folded
// delta; 0 before the first fold).
func (c *Center) RegisterIngestMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("powerchief_ingest_deltas_total", "delta frames folded into the aggregator", func() float64 {
		deltas, _, _, _ := c.IngestCounts()
		return float64(deltas)
	})
	reg.CounterFunc("powerchief_ingest_delta_queries_total", "completed queries summarized by folded deltas", func() float64 {
		_, queries, _, _ := c.IngestCounts()
		return float64(queries)
	})
	reg.CounterFunc("powerchief_ingest_records_total", "trace records received (0 without a tracer)", func() float64 {
		return float64(c.ingest.traceRecords.Load())
	})
	reg.CounterFunc("powerchief_ingest_seq_gaps_total", "lost flushes (delta sequence numbers that never arrived)", func() float64 {
		_, _, _, lost := c.IngestCounts()
		return float64(lost)
	})
	reg.GaugeFunc("powerchief_ingest_staleness_seconds", "age of the newest folded delta", func() float64 {
		s, ok := c.IngestStaleness()
		if !ok {
			return 0
		}
		return s.Seconds()
	})
}
