package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/fleet"
	"powerchief/internal/rpc"
	"powerchief/internal/telemetry"
)

// runFleet is the fleet coordinator, the Command Center one level up: every
// epoch it redistributes a cluster budget over node services by their
// bottleneck metrics, reclaiming the watts of nodes that die, hang or
// partition and re-admitting them budget-safely (DESIGN.md §5h).
func runFleet(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("fleet")
	var (
		nodes      = fs.String("nodes", "", "comma-separated node service addresses")
		budget     = fs.Float64("budget", 100, "cluster-wide power budget in watts")
		floor      = fs.Float64("floor", 10, "per-node budget floor in watts")
		hyst       = fs.Float64("hysteresis", 0, "minimum watt move worth actuating (0 = floor/4)")
		interval   = fs.Duration("interval", time.Second, "control epoch cadence")
		duration   = fs.Duration("duration", 0, "run length (0 = until interrupted)")
		cooldown   = fs.Int("cooldown", 3, "epochs a re-admitted node is pinned at the floor")
		strictCap  = fs.Bool("strictcap", false, "hold reclaimed watts one detection timeout before re-granting (physical cap never exceeded during partitions)")
		holdEpochs = fs.Int("hold", 0, "epochs a strict-cap hold lasts (0 = suspectafter)")
		rf         rpcFlags
		tel        telemetryFlags
	)
	rf.register(fs, rpcFlags{dialTimeout: 2 * time.Second, callTimeout: time.Second, suspectAfter: 2})
	tel.register(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes == "" {
		return errors.New("-nodes is required")
	}

	var transports []fleet.Transport
	for _, addr := range strings.Split(*nodes, ",") {
		node, err := fleet.DialNode(strings.TrimSpace(addr), rpc.ClientOptions{DialTimeout: rf.dialTimeout, CallTimeout: rf.callTimeout})
		if err != nil {
			return fmt.Errorf("dialing node %s: %w", addr, err)
		}
		defer node.Close()
		transports = append(transports, node)
	}

	audit := telemetry.NewAuditLog(0)
	coord, err := fleet.NewCoordinator(fleet.Options{
		Budget: cmp.Watts(*budget), Floor: cmp.Watts(*floor), Hysteresis: cmp.Watts(*hyst), SuspectAfter: rf.suspectAfter,
		CooldownEpochs: *cooldown, StrictCap: *strictCap, HoldEpochs: *holdEpochs, Audit: audit,
	}, transports...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleet coordinator over %d nodes, budget %.2fW, floor %.2fW, epoch %v\n",
		len(transports), *budget, *floor, *interval)

	srv, err := tel.serve(stdout, "", audit, nil, coord.RegisterMetrics, coord.RegisterIngestMetrics)
	if err != nil {
		return err
	}
	defer srv.Close()

	loop, err := controlplane.Start(controlplane.WallClock(1), coord, controlplane.Options{
		Policy:   fleet.NewRebalance(),
		Interval: *interval,
		Audit:    audit,
		OnError:  func(err error) { fmt.Fprintln(os.Stderr, "epoch:", err) },
	})
	if err != nil {
		return err
	}
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	<-ctx.Done()
	loop.Stop()

	granted, healths := coord.Granted(), coord.Healths()
	names := make([]string, 0, len(granted))
	for name := range granted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "node %-16s %-10s %7.2fW\n", name, healths[name], float64(granted[name]))
	}
	q, r, f := coord.Counts()
	fmt.Fprintf(stdout, "Σ granted %.2fW of %.2fW; %d quarantines, %d re-admissions, %d fenced reports\n",
		float64(coord.Draw()), *budget, q, r, f)
	if count, mean, p99, ok := coord.FleetLatency(0.99); ok {
		deltas, _, lost := coord.IngestCounts()
		fmt.Fprintf(stdout, "fleet latency over %d completions (from %d heartbeat deltas, %d lost): mean=%v p99=%v\n",
			count, deltas, lost, mean.Round(time.Millisecond), p99.Round(time.Millisecond))
	}
	if n, err := loop.Errors(); n > 0 {
		fmt.Fprintf(stdout, "control loop: %d degraded/failed epochs (last: %v)\n", n, err)
	}
	return nil
}

// runNode is one node of a federated fleet: a synthetic power domain
// exposed to the fleet coordinator over the framework's RPC. The node
// reports its bottleneck metric and accepts epoch-fenced budget grants.
func runNode(ctx context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("node")
	var (
		name       = fs.String("name", "", "node name reported to the coordinator")
		load       = fs.Float64("load", 1, "work intensity (1.0 ≈ one saturated max-level core)")
		ingestRate = fs.Float64("ingest.rate", 100, "synthetic completions observed per second while ingest is enabled")
		ingest     ingestFlags
		service    serviceFlags
	)
	// Completions folded locally ride the heartbeat reports: no extra RPCs.
	ingest.register(fs, "enable delta-batched stat ingest with this memory bound in completions (0: off)", "delta accumulator interval (0: stats default; flush cadence is the heartbeat)")
	service.register(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return errors.New("-name is required")
	}
	backend := fleet.NewSynthBackend(*load, 0)
	svc, err := fleet.NewNodeService(*name, backend)
	if err != nil {
		return err
	}
	defer svc.Close()

	// The SynthBackend has no query stream, so each tick folds a completion
	// whose latency is the node's bottleneck metric: the coordinator's fleet
	// latency comes from here. The feed stops before the service closes.
	if ingest.batch > 0 {
		svc.EnableIngest(ingest.batch, ingest.interval)
		rate := *ingestRate
		if rate <= 0 {
			rate = 100
		}
		defer controlplane.TickerEvery(time.Duration(float64(time.Second)/rate), func() { svc.Observe(backend.Metric()) })()
		fmt.Fprintf(stdout, "node %s delta ingest enabled (batch %d, %.0f synthetic completions/s)\n", *name, ingest.batch, rate)
	}

	if err := service.serve(ctx, stdout, "node "+*name, fmt.Sprintf("load %.2f", *load), svc, nil, svc.RegisterMetrics); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "node %s stopped at %.2fW (epoch %d, %d grants)\n", *name, float64(backend.Budget()), svc.Epoch(), svc.Grants())
	return nil
}
