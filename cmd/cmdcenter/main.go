// Command cmdcenter runs the distributed Command Center: it connects to the
// stage services of a pipeline (in order), generates Poisson load whose
// per-stage demands follow a built-in application's work models, drives a
// control policy over RPC, and reports end-to-end latency on exit.
//
//	cmdcenter -app sirius -stages 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//	          -budget 13.56 -policy powerchief -rate 2.0 -duration 60s
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"powerchief"
	"powerchief/internal/dist"
	"powerchief/internal/rpc"
	"powerchief/internal/telemetry"
)

func main() {
	var (
		appName   = flag.String("app", "sirius", "application providing per-stage demand models")
		stages    = flag.String("stages", "", "comma-separated stage service addresses, pipeline order")
		budget    = flag.Float64("budget", 13.56, "global power budget in watts")
		policy    = flag.String("policy", "powerchief", "control policy")
		qos       = flag.Duration("qos", 2*time.Second, "QoS target for pegasus/saver")
		rate      = flag.Float64("rate", 1.0, "arrival rate in queries/second (wall clock)")
		duration  = flag.Duration("duration", 30*time.Second, "load duration (wall clock)")
		interval  = flag.Duration("interval", 5*time.Second, "control interval (wall clock)")
		seed      = flag.Int64("seed", 1, "random seed")
		timeScale = flag.Float64("timescale", 1, "stage-service time scale; scales demands sent")

		// Fault tolerance.
		callTimeout   = flag.Duration("calltimeout", 3*time.Second, "deadline for control-plane RPCs (stats, DVFS, clone, probes)")
		submitTimeout = flag.Duration("submittimeout", 60*time.Second, "deadline for each per-stage query dispatch")
		retries       = flag.Int("retries", 2, "max retries of idempotent RPCs on transient failures")
		retryBackoff  = flag.Duration("retrybackoff", 25*time.Millisecond, "base backoff between retries (exponential, jittered)")
		probeInterval = flag.Duration("probe", 500*time.Millisecond, "health-probe cadence for suspect/down stages")
		suspectAfter  = flag.Int("suspectafter", 2, "consecutive failures before a stage is quarantined")
		degraded      = flag.Bool("degraded", false, "serve queries from surviving stages when a stage is quarantined (skip it) instead of failing submits fast")

		// Statistics ingest: how the stages batch their stat deltas.
		ingestBatch = flag.Int("ingest.batch", 0, "completions per stat delta (0: stats default 256)")
		ingestIvl   = flag.Duration("ingest.interval", 0, "delta flush interval for partial batches (0: stats default 100ms)")

		// Telemetry.
		metricsAddr = flag.String("metrics.addr", "", "serve /metrics, /debug/trace and /debug/decisions on this address (empty disables)")
		traceSample = flag.Int("trace.sample", 0, "keep every Nth completed query trace (0 disables tracing)")
		traceDepth  = flag.Int("trace.depth", 0, "max per-query records materialized into spans (0 = default)")
	)
	flag.Parse()
	if *stages == "" {
		fatal(fmt.Errorf("-stages is required"))
	}
	addrs := strings.Split(*stages, ",")
	a, err := powerchief.AppByName(*appName)
	if err != nil {
		fatal(err)
	}
	if len(a.Stages) != len(addrs) {
		fatal(fmt.Errorf("app %s has %d stages but %d addresses given", *appName, len(a.Stages), len(addrs)))
	}
	mk, ok := powerchief.PolicyByName(*policy)
	if !ok {
		mk, ok = powerchief.PolicyByNameQoS(*policy, *qos)
	}
	if !ok {
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	audit := powerchief.NewAuditLog(0)
	var tracer *powerchief.Tracer
	if *traceSample > 0 {
		tracer = powerchief.NewTracer(powerchief.TracerOptions{Sample: *traceSample, Depth: *traceDepth})
	}

	center, err := dist.NewCenterOptions(powerchief.Watts(*budget), 4**interval, addrs, dist.CenterOptions{
		CallTimeout:    *callTimeout,
		SubmitTimeout:  *submitTimeout,
		Retry:          rpc.RetryPolicy{Max: *retries, BaseBackoff: *retryBackoff},
		ProbeInterval:  *probeInterval,
		SuspectAfter:   *suspectAfter,
		DegradedSubmit: *degraded,
		IngestBatch:    *ingestBatch,
		IngestInterval: *ingestIvl,
		Audit:          audit,
		Tracer:         tracer,
	})
	if err != nil {
		fatal(err)
	}
	defer center.Close()
	fmt.Printf("command center connected to %d stages, policy %s, budget %.2fW\n",
		len(addrs), *policy, *budget)

	if *metricsAddr != "" {
		reg := powerchief.NewMetricsRegistry()
		reg.GaugeFunc("powerchief_power_draw_watts", "current modelled chip draw", func() float64 {
			return float64(center.Draw())
		})
		reg.GaugeFunc("powerchief_power_headroom_watts", "budget minus draw", func() float64 {
			return float64(center.Headroom())
		})
		reg.CounterFunc("powerchief_queries_submitted_total", "queries admitted", func() float64 {
			sub, _ := center.Counts()
			return float64(sub)
		})
		reg.CounterFunc("powerchief_queries_completed_total", "queries completed", func() float64 {
			_, comp := center.Counts()
			return float64(comp)
		})
		// Health machine: per-stage state gauges, the quarantined count and
		// lifetime quarantine/re-admission counters.
		center.RegisterMetrics(reg)
		// Delta fold counters, lost flushes and the staleness gauge (age of
		// the newest folded delta).
		center.RegisterIngestMetrics(reg)
		reg.CounterFunc("powerchief_decisions_total", "decision audit events recorded", func() float64 {
			return float64(audit.LastSeq())
		})
		// Statistics-pipeline gauges, read from the sharded aggregator's
		// merged moving windows (constant memory in the distributed center).
		agg := center.Aggregator()
		reg.GaugeFunc("powerchief_window_latency_seconds", "moving-window mean end-to-end latency", func() float64 {
			m, _ := agg.WindowLatency()
			return m.Seconds()
		})
		reg.GaugeFunc("powerchief_window_latency_p99_seconds", "moving-window p99 end-to-end latency", func() float64 {
			p, _ := agg.WindowTail(0.99)
			return p.Seconds()
		})
		reg.CounterFunc("powerchief_queries_ingested_total", "completed queries folded into the statistics windows", func() float64 {
			return float64(agg.Ingested())
		})
		srv, err := telemetry.Serve(*metricsAddr, telemetry.Handler(reg, audit, tracer))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", srv.Addr)
	}

	// Control loop: the shared control plane on a real-time clock, driving
	// the center (which is itself an Adjuster) every interval. Degraded
	// intervals — quarantined or vanished stages — are counted by the loop
	// and reported on exit.
	loop, err := powerchief.StartControlLoop(powerchief.WallClock(1), center, powerchief.ControlOptions{
		Policy:   mk(),
		Interval: *interval,
		Audit:    audit,
		OnOutcome: func(out powerchief.BoostOutcome) {
			if out.Kind.String() != "none" {
				fmt.Printf("[ctl] %s on %s → level %v / clone %s\n",
					out.Kind, out.Target, out.NewLevel, out.NewInstance)
			}
			for _, h := range center.Healths() {
				if h.State != dist.Healthy {
					fmt.Printf("[health] stage %s is %s (%v)\n", h.Name, h.State, h.Err)
				}
			}
		},
		OnError: func(err error) { fmt.Fprintln(os.Stderr, "adjust:", err) },
	})
	if err != nil {
		fatal(err)
	}

	// Poisson open-loop load, one goroutine per in-flight query.
	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for time.Now().Before(deadline) {
		wait := time.Duration(rng.ExpFloat64() / *rate * float64(time.Second))
		time.Sleep(wait)
		work := a.DrawWork(rng, instanceCounts(len(a.Stages)))
		// Scale demands to the stage services' compressed time if any.
		_ = timeScale
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := center.Submit(work); err != nil {
				fmt.Fprintln(os.Stderr, "submit:", err)
			}
		}()
	}
	wg.Wait()
	loop.Stop()
	if n, _ := loop.Errors(); n > 0 {
		fmt.Printf("control loop: %d failed adjusts (%d degraded intervals)\n", n, loop.Degraded())
	}

	lat := center.Latency()
	if lat.Count() == 0 {
		fmt.Println("no queries completed")
		return
	}
	sub, comp := center.Counts()
	fmt.Printf("completed %d/%d queries: avg=%v p50=%v p99=%v\n",
		comp, sub,
		lat.Mean().Round(time.Millisecond),
		lat.Quantile(0.5).Round(time.Millisecond),
		lat.Quantile(0.99).Round(time.Millisecond))
}

// instanceCounts returns a single branch per stage — the center sends one
// demand row per stage; fan-out branching happens inside the stage service.
func instanceCounts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmdcenter:", err)
	os.Exit(1)
}
