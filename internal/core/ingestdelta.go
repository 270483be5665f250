package core

import (
	"powerchief/internal/stats"
)

// IngestDelta folds a batched statistics commit into the aggregator: every
// per-instance digest lands in that instance's queuing/serving windows (the
// exact O(bins) merge), the optional end-to-end digest lands in the striped
// e2e window, and the lifetime fallback counters absorb the digest totals —
// so Eq. 1/2/3 read the same numbers as from per-record Ingest. A digest is
// bins on the shared layout, so the aggregator must keep bucketed windows
// (AggregatorOptions.Window = WindowBucketed); exact windows refuse the first
// digest (stats.FoldDigest), before anything is folded.
//
// All samples in the delta are folded at the aggregator's current clock
// reading: the receiver trusts no remote timestamps (the same
// instance-local-clock discipline as Ingest), so a batch's samples are
// displaced by at most the source's flush interval — the bounded staleness
// the flush triggers guarantee.
//
// The delta's query count is added to the ingested total. Callers that
// measure end-to-end latency themselves (the dist Command Center observes
// every completion directly) should ship deltas without an E2E digest and
// keep counting completions via Ingest.
func (a *Aggregator) IngestDelta(d *stats.Delta) error {
	if d.Empty() {
		return nil
	}
	if err := d.Validate(); err != nil {
		return err
	}
	now := a.now()
	for i := range d.Insts {
		id := &d.Insts[i]
		is := a.shard(id.Instance)
		is.mu.Lock()
		at := now
		if at < is.last {
			at = is.last
		} else {
			is.last = at
		}
		if err := stats.FoldDigest(is.queuing, at, id.Queuing); err != nil {
			is.mu.Unlock()
			return err
		}
		if err := stats.FoldDigest(is.serving, at, id.Serving); err != nil {
			is.mu.Unlock()
			return err
		}
		is.mu.Unlock()
		if id.Queuing != nil {
			is.lifeCount.Add(id.Queuing.Count)
			is.lifeQueuing.Add(id.Queuing.SumNS)
		}
		if id.Serving != nil {
			is.lifeServing.Add(id.Serving.SumNS)
		}
	}
	if d.E2E != nil && d.E2E.Count > 0 {
		// Spread the batch across the stripes by sequence number so one
		// chatty source does not serialize behind a single stripe lock.
		if err := a.e2e.FoldDigest(d.Seq, now, d.E2E); err != nil {
			return err
		}
	}
	if d.Queries > 0 {
		a.ingested.Add(d.Queries)
	}
	return nil
}
