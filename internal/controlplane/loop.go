package controlplane

import (
	"fmt"
	"sync"
	"time"

	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/telemetry"
)

// Adjuster runs one control interval of a policy against a backend.
// dist.Center satisfies it directly; DES and live systems adapt through
// NewAdjuster.
type Adjuster interface {
	Adjust(policy core.Policy) (core.BoostOutcome, error)
}

// NewAdjuster adapts a core.System and its aggregator — the DES view or the
// live cluster — into an Adjuster. Policy.Adjust against an in-process
// system cannot fail, so the error is always nil.
func NewAdjuster(sys core.System, agg *core.Aggregator) Adjuster {
	return sysAdjuster{sys: sys, agg: agg}
}

type sysAdjuster struct {
	sys core.System
	agg *core.Aggregator
}

func (a sysAdjuster) Adjust(p core.Policy) (core.BoostOutcome, error) {
	return p.Adjust(a.sys, a.agg), nil
}

// Options configures a Loop.
type Options struct {
	// Policy decides each interval. Required.
	Policy core.Policy
	// Interval is the adjust cadence in engine time. Required.
	Interval time.Duration
	// SampleInterval, with OnSample, adds a sampling epoch (trace series,
	// power integrals). It registers after the adjust epoch so same-time
	// DES events fire adjust-first.
	SampleInterval time.Duration
	// OnSample is invoked each sample epoch with the clock's current time.
	OnSample func(now time.Duration)
	// Audit, when set, is attached to the policy if it is a core.AuditSetter:
	// core.Tick then renders each tick's decision record into it.
	Audit *telemetry.AuditLog
	// Tap, when set, is attached to the policy if it is a core.TapSetter:
	// core.Tick then hands it one record per adjust interval — snapshot,
	// plan, outcome — for offline replay.
	Tap core.DecisionTap
	// OnOutcome observes every successful adjust (after recording).
	OnOutcome func(core.BoostOutcome)
	// OnError observes every failed adjust (degraded or not).
	OnError func(error)
}

// Loop is the running control loop: adjust epochs deciding and actuating
// through the policy, an optional sampling epoch, and outcome counters.
type Loop struct {
	clock Clock
	adj   Adjuster
	opts  Options

	mu       sync.Mutex
	total    uint64
	boosts   map[core.BoostKind]int
	degraded uint64
	errs     uint64
	lastErr  error

	stopAdjust func()
	stopSample func()
	stopOnce   sync.Once
	stopped    chan struct{}
}

// Start validates the options and registers the loop's epochs on the clock.
// The first adjust fires one interval from now.
func Start(clock Clock, adj Adjuster, opts Options) (*Loop, error) {
	if clock == nil {
		return nil, fmt.Errorf("controlplane: nil clock")
	}
	if adj == nil {
		return nil, fmt.Errorf("controlplane: nil adjuster")
	}
	if opts.Policy == nil {
		return nil, fmt.Errorf("controlplane: nil policy")
	}
	if opts.Interval <= 0 {
		return nil, fmt.Errorf("controlplane: adjust interval must be positive")
	}
	if opts.Audit != nil {
		if as, ok := opts.Policy.(core.AuditSetter); ok {
			as.SetAudit(opts.Audit)
		}
	}
	if opts.Tap != nil {
		if ts, ok := opts.Policy.(core.TapSetter); ok {
			ts.SetTap(opts.Tap)
		}
	}
	l := &Loop{
		clock:   clock,
		adj:     adj,
		opts:    opts,
		boosts:  make(map[core.BoostKind]int),
		stopped: make(chan struct{}),
	}
	// Registration order is part of the determinism contract: adjust before
	// sample, so equal-timestamp DES events fire in that order.
	l.stopAdjust = clock.Every(opts.Interval, l.step)
	if opts.SampleInterval > 0 && opts.OnSample != nil {
		l.stopSample = clock.Every(opts.SampleInterval, func() { opts.OnSample(l.clock.Now()) })
	}
	return l, nil
}

// step runs one adjust epoch.
func (l *Loop) step() {
	out, err := l.adj.Adjust(l.opts.Policy)
	if err != nil {
		l.mu.Lock()
		l.errs++
		l.lastErr = err
		if fault.IsDegraded(err) {
			// Degraded mode: the backend is partially down. The loop keeps
			// ticking — quarantined stages re-admit through the health
			// machine, and skipping intervals would stall the survivors'
			// power allocation.
			l.degraded++
		}
		l.mu.Unlock()
		if l.opts.OnError != nil {
			l.opts.OnError(err)
		}
		return
	}
	l.mu.Lock()
	l.total++
	l.boosts[out.Kind]++
	l.mu.Unlock()
	if l.opts.OnOutcome != nil {
		l.opts.OnOutcome(out)
	}
}

// Total counts every successful adjust over the loop's lifetime.
func (l *Loop) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Boosts tallies outcomes by kind over the loop's lifetime.
func (l *Loop) Boosts() map[core.BoostKind]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[core.BoostKind]int, len(l.boosts))
	for k, v := range l.boosts {
		out[k] = v
	}
	return out
}

// Errors returns the failed-adjust count and the most recent failure.
func (l *Loop) Errors() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errs, l.lastErr
}

// Degraded counts adjusts that failed because the backend had quarantined
// stages (fault.ErrStageDown) or none left (fault.ErrNoHealthyStages).
func (l *Loop) Degraded() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// Stop halts both epochs and waits for any in-flight adjust to finish. It
// is safe to call concurrently and repeatedly: every caller blocks until
// the loop has fully stopped.
func (l *Loop) Stop() {
	l.stopOnce.Do(func() {
		l.stopAdjust()
		if l.stopSample != nil {
			l.stopSample()
		}
		close(l.stopped)
	})
	<-l.stopped
}
