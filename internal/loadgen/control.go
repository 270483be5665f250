package loadgen

import (
	"fmt"
	"time"

	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/telemetry"
)

// ControlOptions configures a control loop attached to a benchmark target,
// so open-loop load runs under an active power-allocation policy instead of
// a static configuration.
type ControlOptions struct {
	// Policy decides each interval. Required.
	Policy core.Policy
	// Interval is the adjust cadence in engine (virtual) time. Zero defaults
	// to the paper's 25 s control period.
	Interval time.Duration
	// Scale compresses wall time for the distributed target (wall = virtual
	// × Scale; zero means real time). The live target scales through its
	// cluster clock and the DES target runs in pure virtual time, so both
	// ignore it.
	Scale float64
	// Audit, when set, is attached to the policy so decisions are logged.
	Audit *telemetry.AuditLog
	// Tap, when set, is attached to the policy (if it implements
	// core.TapSetter) so every adjust interval's decision — snapshot, plan,
	// outcome — is recorded for offline replay.
	Tap core.DecisionTap
}

func (o *ControlOptions) defaults() error {
	if o.Policy == nil {
		return fmt.Errorf("loadgen: control needs a policy")
	}
	if o.Interval <= 0 {
		o.Interval = 25 * time.Second
	}
	return nil
}

// ControlAttacher is implemented by targets that can run the shared control
// plane alongside the load. Stop the returned loop before closing the
// target.
type ControlAttacher interface {
	AttachControl(opts ControlOptions) (*controlplane.Loop, error)
}

// AttachControl runs the policy against the live cluster on its virtual
// clock. The loop gets its own statistics aggregator, fed by the cluster's
// completion callback.
func (t *LiveTarget) AttachControl(opts ControlOptions) (*controlplane.Loop, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	agg := core.NewAggregatorOptions(opts.Interval, t.cluster.Now, core.AggregatorOptions{
		Window: core.WindowBucketed,
	})
	t.cluster.OnComplete(agg.Ingest)
	return controlplane.Start(t.cluster.Clock(), controlplane.NewAdjuster(t.cluster, agg), controlplane.Options{
		Policy:   opts.Policy,
		Interval: opts.Interval,
		Audit:    opts.Audit,
		Tap:      opts.Tap,
	})
}

// AttachControl runs the policy inside the simulation: adjust epochs are
// deterministic virtual-time events interleaved with the scheduled arrivals.
func (t *DESTarget) AttachControl(opts ControlOptions) (*controlplane.Loop, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	agg := core.NewAggregator(opts.Interval, t.eng.Now)
	t.sys.OnComplete(agg.Ingest)
	view := core.NewDESView(t.sys)
	return controlplane.Start(controlplane.SimClock(t.eng), controlplane.NewAdjuster(view, agg), controlplane.Options{
		Policy:   opts.Policy,
		Interval: opts.Interval,
		Audit:    opts.Audit,
		Tap:      opts.Tap,
	})
}

// AttachControl runs the policy against the Command Center over RPC, on a
// wall clock compressed by opts.Scale to match the stage services' time
// scale. The center aggregates statistics itself and is the loop's Adjuster.
func (t *DistTarget) AttachControl(opts ControlOptions) (*controlplane.Loop, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	return controlplane.Start(controlplane.WallClock(opts.Scale), t.center, controlplane.Options{
		Policy:   opts.Policy,
		Interval: opts.Interval,
		Audit:    opts.Audit,
		Tap:      opts.Tap,
	})
}

// Interface conformance: every built-in target accepts a control loop
// (distDeployment wrappers inherit DistTarget's method by promotion).
var (
	_ ControlAttacher = (*LiveTarget)(nil)
	_ ControlAttacher = (*DESTarget)(nil)
	_ ControlAttacher = (*DistTarget)(nil)
)
