package core

import "time"

// StatsReader is the statistics surface a decision reads: everything a
// Planner may consult beyond the System topology itself. *Aggregator is the
// live implementation; *SnapshotView serves a recorded capture back during
// replay. Planners must read statistics only through this interface — that
// is the purity contract that makes one recorded Snapshot replayable against
// any policy (DESIGN.md §5l).
type StatsReader interface {
	// InstStats returns the moving-window mean queuing and serving time of
	// the named instance; ok is false when the instance was never observed.
	InstStats(name string) (queuing, serving time.Duration, ok bool)
	// WindowLatency returns the windowed mean end-to-end latency.
	WindowLatency() (time.Duration, bool)
	// WindowTail returns the windowed end-to-end latency percentile
	// (p in (0,1], e.g. 0.99).
	WindowTail(p float64) (time.Duration, bool)
	// WindowTails writes the ps[i]-percentile into out[i] for a whole
	// quantile grid from one read of the window — exactly what len(ps)
	// WindowTail calls would return — and reports false when the window is
	// empty.
	WindowTails(ps []float64, out []time.Duration) bool
}
