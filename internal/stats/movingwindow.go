package stats

import "time"

// MovingWindow is what the Command Center aggregator feeds and reads its
// end-to-end latency window through: the exact sample-keeping Window or the
// constant-memory BucketWindow, so deployments can trade exactness
// (deterministic paper reproduction on the DES engine) for bounded memory
// (unbounded live runs) without touching the consumers. Both also answer a
// quantile grid with Percentiles, called on the concrete type so the grid
// stays on the caller's stack.
//
// Implementations are not safe for concurrent use; the aggregator calls them
// under its one lock.
type MovingWindow interface {
	// Add records a sample at virtual time at. Timestamps must not
	// decrease (Window panics; BucketWindow clamps).
	Add(at, value time.Duration)
	// Advance evicts samples that have fallen out of the window as of now
	// without adding a new one.
	Advance(now time.Duration)
	// Mean returns the average of the samples in the window, and false
	// when the window is empty.
	Mean() (time.Duration, bool)
}

// Compile-time conformance of both window kinds.
var (
	_ MovingWindow = (*Window)(nil)
	_ MovingWindow = (*BucketWindow)(nil)
)
