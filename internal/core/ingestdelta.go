package core

import (
	"errors"
	"time"

	"powerchief/internal/stats"
)

// IngestDelta folds a batched statistics commit into the aggregator: every
// per-instance digest pair lands in that instance's paired window as one
// (count, Σ queuing, Σ serving) fold, the optional end-to-end digest lands in
// the end-to-end window (the exact O(bins) merge), and the lifetime fallback
// sums absorb the pair's totals — so Eq. 1/2/3 read the same numbers as from
// per-record Ingest. A digest is bins on the shared layout, so the aggregator
// must keep bucketed windows (AggregatorOptions.Window = WindowBucketed);
// exact windows refuse the first digest, before anything is folded.
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
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock()
	for i := range d.Insts {
		id := &d.Insts[i]
		if id.Queuing == nil || id.Queuing.Count == 0 {
			continue // Validate paired the serving digest with it
		}
		if a.kind != WindowBucketed {
			return errors.New("core: a digest folds only into bucketed windows (stats.PairBucketWindow, the BucketWindow layout), not exact ones")
		}
		is := a.fold(id.Instance, 0)
		queuing, serving := time.Duration(id.Queuing.SumNS), time.Duration(id.Serving.SumNS)
		is.win.(*stats.PairBucketWindow).AddSums(now, id.Queuing.Count, queuing, serving)
		is.life.Records += id.Queuing.Count
		is.life.Queuing += queuing
		is.life.Serving += serving
	}
	if d.E2E != nil && d.E2E.Count > 0 {
		if err := stats.FoldDigest(a.e2e, now, d.E2E); err != nil {
			return err
		}
	}
	a.ingested += d.Queries
	return nil
}
