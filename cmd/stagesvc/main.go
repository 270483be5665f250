// Command stagesvc runs one stage service of the distributed prototype: a
// pool of service instances for a single processing stage, exposed to the
// Command Center over the framework's RPC (§7 of the paper).
//
//	stagesvc -name ASR -membound 0.15 -instances 1 -level mid -addr :7101
//	stagesvc -name QA  -membound 0.25 -instances 2 -level mid -addr :7103
//
// Pass -timescale 0.01 to compress simulated work 100× for demos.
//
// Fault injection for chaos testing the Command Center's degraded-mode power
// control: -chaos routes the service through the dist.ChaosProxy harness, so
// an operator can make a live stage hang (accept-but-never-reply), slow its
// replies, or refuse connections, then restore it:
//
//	stagesvc -name QA -membound 0.25 -addr :7103 -chaos slow -chaosdelay 200ms
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/dist"
	"powerchief/internal/stage"
	"powerchief/internal/telemetry"
)

func main() {
	var (
		name      = flag.String("name", "", "stage name, e.g. ASR")
		kind      = flag.String("kind", "pipeline", "stage organization: pipeline or fanout")
		memBound  = flag.Float64("membound", 0.2, "memory-bound fraction of the service")
		instances = flag.Int("instances", 1, "initial instance count")
		levelStr  = flag.String("level", "mid", "initial frequency: min, mid, max or GHz")
		addr      = flag.String("addr", ":0", "listen address")
		cores     = flag.Int("cores", 16, "cores available to this stage service")
		timeScale = flag.Float64("timescale", 1, "virtual-to-wall time scale for simulated work")

		// Statistics ingest: the center sets the delta batch sizes via the
		// stage.ingest RPC; these bounds clamp whatever it asks for.
		ingestBatch = flag.Int("ingest.batch", 0, "max completions per stat delta (0: accept the center's choice)")
		ingestIvl   = flag.Duration("ingest.interval", 0, "max delta flush interval (0: accept the center's choice)")

		// Fault injection (chaos harness).
		chaos      = flag.String("chaos", "", "serve through the fault-injection proxy: pass, hang, slow or deny")
		chaosDelay = flag.Duration("chaosdelay", 100*time.Millisecond, "per-reply delay in -chaos slow mode")

		// Telemetry.
		metricsAddr = flag.String("metrics.addr", "", "serve /metrics and /debug/trace on this address (empty disables)")
		traceSample = flag.Int("trace.sample", 0, "keep every Nth locally completed query trace (0 disables tracing)")
		traceDepth  = flag.Int("trace.depth", 0, "max per-query records materialized into spans (0 = default)")
	)
	flag.Parse()
	if *name == "" {
		fatal(fmt.Errorf("-name is required"))
	}
	k := stage.Pipeline
	switch *kind {
	case "pipeline":
	case "fanout":
		k = stage.FanOut
	default:
		fatal(fmt.Errorf("unknown -kind %q", *kind))
	}
	lvl, err := parseLevel(*levelStr)
	if err != nil {
		fatal(err)
	}
	svc, err := dist.NewStageService(dist.StageOptions{
		Name:      *name,
		Kind:      k,
		MemBound:  *memBound,
		Instances: *instances,
		Level:     lvl,
		Cores:     *cores,
		TimeScale: *timeScale,

		IngestMaxBatch:    *ingestBatch,
		IngestMaxInterval: *ingestIvl,
	})
	if err != nil {
		fatal(err)
	}
	var proxy *dist.ChaosProxy
	bound := ""
	if *chaos != "" {
		mode, err := parseChaosMode(*chaos)
		if err != nil {
			fatal(err)
		}
		// The service listens privately; the advertised address is the
		// chaos proxy in front of it.
		backend, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		proxy = dist.NewChaosProxy(backend)
		proxy.SetMode(mode)
		proxy.SetDelay(*chaosDelay)
		if bound, err = proxy.Listen(*addr); err != nil {
			fatal(err)
		}
		fmt.Printf("stage %s chaos mode %s (delay %v), backend %s\n", *name, mode, *chaosDelay, backend)
	} else {
		if bound, err = svc.Listen(*addr); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("stage %s serving on %s (%d instances @ %v)\n", *name, bound, *instances, lvl)

	if *metricsAddr != "" {
		cluster := svc.Cluster()
		var tracer *telemetry.Tracer
		if *traceSample > 0 {
			tracer = telemetry.NewTracer(telemetry.TracerOptions{Sample: *traceSample, Depth: *traceDepth})
			cluster.OnComplete(tracer.ObserveQuery)
		}
		reg := telemetry.NewRegistry()
		reg.GaugeFunc("powerchief_stage_power_draw_watts", "local modelled draw", func() float64 {
			return float64(cluster.Draw())
		})
		reg.CounterFunc("powerchief_stage_queries_submitted_total", "queries accepted by this stage", func() float64 {
			return float64(cluster.Submitted())
		})
		reg.CounterFunc("powerchief_stage_queries_completed_total", "queries served by this stage", func() float64 {
			return float64(cluster.Completed())
		})
		// Statistics accumulator: flushes shipped and the unflushed backlog
		// (the at-risk window if this process dies before the next flush).
		reg.CounterFunc("powerchief_stage_ingest_flushes_total", "stat deltas flushed to the center", func() float64 {
			flushes, _ := svc.IngestStats()
			return float64(flushes)
		})
		reg.GaugeFunc("powerchief_stage_ingest_pending_queries", "completions folded but not yet flushed", func() float64 {
			_, pending := svc.IngestStats()
			return float64(pending)
		})
		srv, err := telemetry.Serve(*metricsAddr, telemetry.Handler(reg, nil, tracer))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("stage %s telemetry on http://%s/metrics\n", *name, srv.Addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	if proxy != nil {
		proxy.Close()
	}
	svc.Close()
	fmt.Printf("stage %s stopped\n", *name)
}

func parseChaosMode(s string) (dist.ChaosMode, error) {
	switch s {
	case "pass":
		return dist.ChaosPass, nil
	case "hang":
		return dist.ChaosHang, nil
	case "slow":
		return dist.ChaosSlow, nil
	case "deny":
		return dist.ChaosDeny, nil
	}
	return 0, fmt.Errorf("unknown -chaos mode %q", s)
}

func parseLevel(s string) (cmp.Level, error) {
	switch s {
	case "min":
		return 0, nil
	case "mid":
		return cmp.MidLevel, nil
	case "max":
		return cmp.MaxLevel, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad -level %q", s)
	}
	return cmp.LevelOf(cmp.GHz(f)), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stagesvc:", err)
	os.Exit(1)
}
