package main

import (
	"sync"
	"time"

	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/telemetry"
)

// tickLog collects control-tick durations. The wall-clock engines tick on
// the control loop's goroutine while clients run, hence the lock.
type tickLog struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *tickLog) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

// since returns a copy of the ticks logged after the first `from`.
func (l *tickLog) since(from int) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.d[from:]...)
}

func (l *tickLog) snapshot() []time.Duration { return l.since(0) }

// timedPolicy times every control tick from outside: harness.Run and
// LiveTarget.AttachControl take a policy, so wrapping the policy is the one
// way to see a tick without touching product code. Adjust is the whole tick
// (capture → plan → apply → record) for the DES and live engines.
//
// With a tracer attached each tick becomes a span, and — when a shadow
// planner is set — the wrapper first walks the decision path phase by phase
// on the real state: CaptureSnapshot → NewSnapshotView → Plan →
// ShadowExecutor.Apply, all side-effect-free on the system (DESIGN.md §5l).
// The shadow is a second planner instance, so a stateful policy's own
// bookkeeping (hold bands, withdraw epochs) is never advanced twice.
type timedPolicy struct {
	inner  core.Policy
	ticks  *tickLog
	tr     *tracer
	shadow core.Planner
	n      uint64
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) Adjust(sys core.System, agg *core.Aggregator) core.BoostOutcome {
	// Every tracer call is a no-op on a nil tracer, and the shadow planner
	// is only ever set together with one.
	t.n++
	tick := t.tr.begin("controlplane.tick", t.tr.currentScope(), t.n)
	if t.shadow != nil && agg != nil {
		s := t.tr.begin("core.capture", tick, t.n)
		snap := core.CaptureSnapshot(sys, agg)
		t.tr.end(s)
		s = t.tr.begin("core.view", tick, t.n)
		sv := core.NewSnapshotView(snap)
		t.tr.end(s)
		s = t.tr.begin("core.plan", tick, t.n)
		plan, _ := t.shadow.Plan(sv, sv)
		t.tr.end(s)
		s = t.tr.begin("core.apply", tick, t.n)
		_ = core.ShadowExecutor{}.Apply(sv, plan)
		t.tr.end(s)
	}
	s := t.tr.begin("policy.adjust", tick, t.n)
	start := time.Now()
	out := t.inner.Adjust(sys, agg)
	t.ticks.add(time.Since(start))
	t.tr.end(s)
	t.tr.end(tick)
	return out
}

// SetAudit forwards to the wrapped policy when it accepts an audit log.
func (t *timedPolicy) SetAudit(a *telemetry.AuditLog) {
	if as, ok := t.inner.(core.AuditSetter); ok {
		as.SetAudit(a)
	}
}

// timedTapPolicy additionally exposes the wrapped policy's decision tap; the
// harness records a decision trace only for policies that implement
// core.TapSetter, so the wrapper must not claim it for policies that do not.
type timedTapPolicy struct{ timedPolicy }

func (t *timedTapPolicy) SetTap(tp core.DecisionTap) { t.inner.(core.TapSetter).SetTap(tp) }

// wrapPolicy builds the timing wrapper around inner. shadow may be nil.
func wrapPolicy(inner core.Policy, ticks *tickLog, tr *tracer, shadow core.Planner) core.Policy {
	tp := timedPolicy{inner: inner, ticks: ticks, tr: tr, shadow: shadow}
	if _, ok := inner.(core.TapSetter); ok {
		return &timedTapPolicy{tp}
	}
	return &tp
}

// instrument is what a run's wrappers write to: the tick log always, the
// tracer only in a traced pass (nil otherwise).
type instrument struct {
	ticks *tickLog
	tr    *tracer
}

// policy wraps a policy factory (nil = the static baseline) so every Adjust
// is timed. In a traced pass, shadow asks for the phase-by-phase walk with a
// second planner instance from the same factory.
func (in instrument) policy(mk func() core.Policy, shadow bool) func() core.Policy {
	return func() core.Policy {
		var sh core.Planner
		if shadow && in.tr != nil {
			sh, _ = newPolicy(mk).(core.Planner)
		}
		return wrapPolicy(newPolicy(mk), in.ticks, in.tr, sh)
	}
}

func newPolicy(mk func() core.Policy) core.Policy {
	if mk == nil {
		return core.Static{}
	}
	return mk()
}

// timedAdjuster times a whole controlplane.Adjuster call — for the fleet
// coordinator and the dist center, whose Adjust does more than run the
// policy (heartbeats and grants; MethodStats polls).
type timedAdjuster struct {
	inner controlplane.Adjuster
	ticks *tickLog
	tr    *tracer
	n     uint64
}

func (a *timedAdjuster) Adjust(p core.Policy) (core.BoostOutcome, error) {
	a.n++
	span := a.tr.begin("controlplane.adjust", a.tr.currentScope(), a.n)
	prev := a.tr.setScope(span)
	start := time.Now()
	out, err := a.inner.Adjust(p)
	a.ticks.add(time.Since(start))
	a.tr.setScope(prev)
	a.tr.end(span)
	return out, err
}
