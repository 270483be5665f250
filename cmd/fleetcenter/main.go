// Command fleetcenter runs the fleet coordinator: the Command Center one
// level up. It owns a cluster-wide power budget, dials a set of node
// services, and every control epoch redistributes per-node budgets from each
// node's reported bottleneck metric — reclaiming the watts of nodes that
// die, hang or partition, and re-admitting them budget-safely when they
// return (see DESIGN.md §5h).
//
//	fleetcenter -nodes 127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203 \
//	            -budget 100 -floor 10 -interval 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/fleet"
	"powerchief/internal/rpc"
	"powerchief/internal/telemetry"
)

func main() {
	var (
		nodes    = flag.String("nodes", "", "comma-separated node service addresses")
		budget   = flag.Float64("budget", 100, "cluster-wide power budget in watts")
		floor    = flag.Float64("floor", 10, "per-node budget floor in watts")
		hyst     = flag.Float64("hysteresis", 0, "minimum watt move worth actuating (0 = floor/4)")
		interval = flag.Duration("interval", time.Second, "control epoch cadence")
		duration = flag.Duration("duration", 0, "run length (0 = until interrupted)")

		// Fault tolerance.
		dialTimeout  = flag.Duration("dialtimeout", 2*time.Second, "deadline for dialing a node service")
		callTimeout  = flag.Duration("calltimeout", time.Second, "deadline for node report and grant RPCs")
		suspectAfter = flag.Int("suspectafter", 2, "consecutive failures before a node is quarantined")
		cooldown     = flag.Int("cooldown", 3, "epochs a re-admitted node is pinned at the floor")
		strictCap    = flag.Bool("strictcap", false, "hold reclaimed watts one detection timeout before re-granting (physical cap never exceeded during partitions)")
		holdEpochs   = flag.Int("hold", 0, "epochs a strict-cap hold lasts (0 = suspectafter)")

		// Telemetry.
		metricsAddr = flag.String("metrics.addr", "", "serve /metrics and /debug/decisions on this address (empty disables)")
	)
	flag.Parse()
	if *nodes == "" {
		fatal(fmt.Errorf("-nodes is required"))
	}

	var transports []fleet.Transport
	for _, addr := range strings.Split(*nodes, ",") {
		node, err := fleet.DialNode(strings.TrimSpace(addr), rpc.ClientOptions{
			DialTimeout: *dialTimeout,
			CallTimeout: *callTimeout,
		})
		if err != nil {
			fatal(fmt.Errorf("dialing node %s: %w", addr, err))
		}
		defer node.Close()
		transports = append(transports, node)
	}

	audit := telemetry.NewAuditLog(0)
	coord, err := fleet.NewCoordinator(fleet.Options{
		Budget:         cmp.Watts(*budget),
		Floor:          cmp.Watts(*floor),
		Hysteresis:     cmp.Watts(*hyst),
		SuspectAfter:   *suspectAfter,
		CooldownEpochs: *cooldown,
		StrictCap:      *strictCap,
		HoldEpochs:     *holdEpochs,
		Audit:          audit,
	}, transports...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fleet coordinator over %d nodes, budget %.2fW, floor %.2fW, epoch %v\n",
		len(transports), *budget, *floor, *interval)

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		coord.RegisterMetrics(reg)
		// Heartbeat-carried node statistics: delta fold counters, sequence
		// gaps (lost heartbeat windows) and the merged fleet-wide latency.
		coord.RegisterIngestMetrics(reg)
		srv, err := telemetry.Serve(*metricsAddr, telemetry.Handler(reg, audit, nil))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", srv.Addr)
	}

	loop, err := controlplane.Start(controlplane.WallClock(1), coord, controlplane.Options{
		Policy:   fleet.NewRebalance(),
		Interval: *interval,
		Audit:    audit,
		OnError:  func(err error) { fmt.Fprintln(os.Stderr, "epoch:", err) },
	})
	if err != nil {
		fatal(err)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-stop:
		case <-time.After(*duration):
		}
	} else {
		<-stop
	}
	loop.Stop()

	granted := coord.Granted()
	healths := coord.Healths()
	names := make([]string, 0, len(granted))
	for name := range granted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("node %-16s %-10s %7.2fW\n", name, healths[name], float64(granted[name]))
	}
	q, r, f := coord.Counts()
	fmt.Printf("Σ granted %.2fW of %.2fW; %d quarantines, %d re-admissions, %d fenced reports\n",
		float64(coord.Draw()), *budget, q, r, f)
	if count, mean, p99, ok := coord.FleetLatency(0.99); ok {
		deltas, _, lost := coord.IngestCounts()
		fmt.Printf("fleet latency over %d completions (from %d heartbeat deltas, %d lost): mean=%v p99=%v\n",
			count, deltas, lost, mean.Round(time.Millisecond), p99.Round(time.Millisecond))
	}
	if n, err := loop.Errors(); n > 0 {
		fmt.Printf("control loop: %d degraded/failed epochs (last: %v)\n", n, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetcenter:", err)
	os.Exit(1)
}
