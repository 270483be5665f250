package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/dist"
	"powerchief/internal/fault"
	"powerchief/internal/replay"
	"powerchief/internal/rpc"
	"powerchief/internal/stage"
	"powerchief/internal/telemetry"
)

// runCenter is the distributed Command Center: it connects to the stage
// services of a pipeline (in order), generates Poisson load whose per-stage
// demands follow a built-in application's work models, drives a control
// policy over RPC, and reports end-to-end latency on exit. Under -timescale
// the control loop runs on compressed wall time, and -rate, -duration,
// -interval and the reported latencies are virtual time.
func runCenter(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("center")
	var (
		appName       = fs.String("app", "sirius", "application providing per-stage demand models")
		stages        = fs.String("stages", "", "comma-separated stage service addresses, pipeline order")
		budget        = fs.Float64("budget", 13.56, "global power budget in watts")
		policy        = fs.String("policy", "powerchief", "control policy: "+strings.Join(replay.PolicyNames(), ", "))
		qos           = fs.Duration("qos", 2*time.Second, "QoS target for pegasus/saver")
		rate          = fs.Float64("rate", 1.0, "arrival rate in queries/second (virtual time)")
		duration      = fs.Duration("duration", 30*time.Second, "load duration (virtual time)")
		interval      = fs.Duration("interval", 5*time.Second, "control interval (virtual time)")
		seed          = fs.Int64("seed", 1, "random seed")
		timeScale     = fs.Float64("timescale", 1, "virtual-to-wall time scale, as the stages' -timescale (0.01 runs 100× compressed)")
		submitTimeout = fs.Duration("submittimeout", 60*time.Second, "deadline for each per-stage query dispatch")
		degraded      = fs.Bool("degraded", false, "serve queries from surviving stages when a stage is quarantined (skip it) instead of failing submits fast")
		rf            rpcFlags
		ingest        ingestFlags
		tel           telemetryFlags
	)
	rf.register(fs, rpcFlags{callTimeout: 3 * time.Second, retries: 2, retryBackoff: 25 * time.Millisecond, probe: 500 * time.Millisecond, suspectAfter: 2})
	ingest.register(fs, "completions per stat delta (0: stats default 256)", "delta flush interval for partial batches (0: stats default 100ms)")
	tel.register(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stages == "" {
		return errors.New("-stages is required")
	}
	scale := *timeScale
	if scale <= 0 {
		return fmt.Errorf("-timescale %v is not positive", scale)
	}
	wall := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	addrs := strings.Split(*stages, ",")
	a, err := app.ByName(*appName)
	if err != nil {
		return err
	}
	if len(a.Stages) != len(addrs) {
		return fmt.Errorf("app %s has %d stages but %d addresses given", *appName, len(a.Stages), len(addrs))
	}
	mk, err := replay.PolicyFactory(*policy, *qos, core.DefaultConfig())
	if err != nil {
		return err
	}

	audit := telemetry.NewAuditLog(0)
	tracer := tel.tracer()
	// The control loop, the center's statistics window and the end-to-end
	// latencies it measures all run on one compressed wall clock: virtual
	// time, like the stages' statistics and -qos.
	clock := controlplane.WallClock(scale)
	center, err := dist.NewCenterOptions(cmp.Watts(*budget), 4**interval, addrs, dist.CenterOptions{
		CallTimeout: rf.callTimeout, SubmitTimeout: *submitTimeout, Retry: rpc.RetryPolicy{Max: rf.retries, BaseBackoff: rf.retryBackoff},
		ProbeInterval: rf.probe, SuspectAfter: rf.suspectAfter, DegradedSubmit: *degraded,
		IngestBatch: ingest.batch, IngestInterval: ingest.interval, Audit: audit, Tracer: tracer, Clock: clock,
	})
	if err != nil {
		return err
	}
	defer center.Close()
	fmt.Fprintf(stdout, "command center connected to %d stages, policy %s, budget %.2fW\n", len(addrs), *policy, *budget)
	srv, err := tel.serve(stdout, "", audit, tracer, center.RegisterMetrics, center.RegisterIngestMetrics)
	if err != nil {
		return err
	}
	defer srv.Close()

	// The shared control loop on the compressed wall clock drives the center
	// (itself an Adjuster); degraded intervals are reported on exit.
	loop, err := controlplane.Start(clock, center, controlplane.Options{
		Policy:   mk(),
		Interval: *interval,
		Audit:    audit,
		OnOutcome: func(out core.BoostOutcome) {
			if out.Kind != core.BoostNone {
				fmt.Fprintf(stdout, "[ctl] %s on %s → level %v / clone %s\n", out.Kind, out.Target, out.NewLevel, out.NewInstance)
			}
			for _, h := range center.Healths() {
				if h.State != fault.Healthy {
					fmt.Fprintf(stdout, "[health] stage %s is %s (%v)\n", h.Name, h.State, h.Err)
				}
			}
		},
		OnError: func(err error) { fmt.Fprintln(os.Stderr, "adjust:", err) },
	})
	if err != nil {
		return err
	}
	defer loop.Stop()

	// Poisson open-loop load, one goroutine per in-flight query and one demand
	// row per stage (no branches): fan-out happens inside the stage service.
	branches := make([]int, len(a.Stages))
	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(wall(*duration))
	var wg sync.WaitGroup
load:
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			break load
		case <-time.After(wall(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))):
		}
		work := a.DrawWork(rng, branches)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := center.Submit(work); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "submit:", err)
			}
		}()
	}
	if ctx.Err() != nil { // interrupted: abort the in-flight dispatches
		loop.Stop()
		center.Close()
	}
	wg.Wait()
	loop.Stop()
	if n, _ := loop.Errors(); n > 0 {
		fmt.Fprintf(stdout, "control loop: %d failed adjusts (%d degraded intervals)\n", n, loop.Degraded())
	}

	sub, comp := center.Counts()
	if lat := center.Latency(); lat.Count() == 0 {
		fmt.Fprintln(stdout, "no queries completed")
	} else {
		ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
		fmt.Fprintf(stdout, "completed %d/%d queries: avg=%v p50=%v p99=%v\n",
			comp, sub, ms(lat.Mean()), ms(lat.Quantile(0.5)), ms(lat.Quantile(0.99)))
	}
	return nil
}

// runStage is one stage service of the distributed prototype: a pool of
// service instances for a single processing stage, exposed to the Command
// Center over the framework's RPC (§7 of the paper).
func runStage(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("stage")
	var (
		name      = fs.String("name", "", "stage name, e.g. ASR")
		kind      = fs.String("kind", "pipeline", "stage organization: pipeline or fanout")
		memBound  = fs.Float64("membound", 0.2, "memory-bound fraction of the service")
		instances = fs.Int("instances", 1, "initial instance count")
		levelStr  = fs.String("level", "mid", "initial frequency: min, mid, max or GHz")
		cores     = fs.Int("cores", 16, "cores available to this stage service")
		timeScale = fs.Float64("timescale", 1, "virtual-to-wall time scale for simulated work")
		ingest    ingestFlags
		service   serviceFlags
	)
	ingest.register(fs, "max completions per stat delta (0: accept the center's choice)", "max delta flush interval (0: accept the center's choice)")
	service.register(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return errors.New("-name is required")
	}
	k, ok := map[string]stage.Kind{"pipeline": stage.Pipeline, "fanout": stage.FanOut}[*kind]
	if !ok {
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	lvl, err := parseLevel(*levelStr)
	if err != nil {
		return err
	}
	svc, err := dist.NewStageService(dist.StageOptions{Name: *name, Kind: k, MemBound: *memBound, Instances: *instances, Level: lvl,
		Cores: *cores, TimeScale: *timeScale, IngestMaxBatch: ingest.batch, IngestMaxInterval: ingest.interval})
	if err != nil {
		return err
	}
	defer svc.Close()

	tracer := service.tel.tracer()
	if tracer != nil {
		svc.Cluster().OnComplete(tracer.ObserveQuery)
	}
	if err := service.serve(ctx, stdout, "stage "+*name, fmt.Sprintf("%d instances @ %v", *instances, lvl), svc, tracer, svc.RegisterMetrics); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stage %s stopped\n", *name)
	return nil
}
