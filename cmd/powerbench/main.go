// Command powerbench is the benchmark driver: it pushes a fixed arrival
// schedule (Poisson, constant-rate, a linear ramp, a diurnal sinusoid, a
// flash crowd or a recorded replay — deterministic per seed)
// into one of the framework's engines and reports coordinated-omission-safe
// latency — intended-start to completion — as a human table and/or JSON.
//
// Targets:
//
//	-target live   the in-process goroutine engine (wall-clock)
//	-target des    the discrete-event engine (virtual time; finishes in
//	               milliseconds and is exactly reproducible per seed)
//	-target dist   the distributed runtime: self-hosts one stage service
//	               per application stage on loopback TCP, or connects to
//	               running `powerchief stage` processes with -addrs
//
// Examples:
//
//	powerbench -target des -app sirius -rate 4 -duration 60s -warmup 5s
//	powerbench -target live -app nlp -rate 50 -duration 10s -timescale 0.02
//	powerbench -target des -app sirius -sweep 1,2,4,8 -duration 60s -json -
//	powerbench -arrivals ramp:2:20 -target des -duration 120s
//
// The sweep mode runs every rate concurrently across goroutines, each
// against its own freshly built target, and prints one combined table —
// the §8-style load sweep in a single command. With -metrics.addr the
// run's live series (ops, errors, backlog, p99) are served on /metrics
// while the benchmark is in flight.
//
// # Distributed mode
//
// powerbench also speaks the benchnet protocol, so one schedule can be
// generated by many processes (or hosts) against one shared deployment:
//
//	powerbench -agent -agent.addr 127.0.0.1:7101      # on each load host
//	powerbench -coordinate host1:7101,host2:7101 -target dist -rate 200 ...
//	powerbench -agents.spawn 4 -target dist -rate 200 ...   # local fan-out
//
// The coordinator ships every agent the full run spec plus a stride shard,
// starts them on a common epoch, streams progress, optionally cuts the run
// once throughput stabilizes (-autoterm.dur/-autoterm.pct), and merges the
// per-agent latency histograms exactly into one cluster-wide summary.
//
// # Artifacts and the gate
//
// Every mode's -json output — a run, a sweep, a coordinated run, and the
// tenant, arbiter and replay subcommands — is one envelope
// (loadgen.Artifact), and
//
//	powerbench cmp baseline.json fresh.json
//
// is the one comparator over it: exit 0 pass, 1 regression, 2 not
// comparable or unreadable. README.md, "Artifacts and the gate", has the
// fields, the rules and where each kind declares its bounds.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"powerchief"
	"powerchief/internal/benchnet"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/loadgen"
	"powerchief/internal/replay"
	"powerchief/internal/telemetry"
)

type options struct {
	target    string
	appName   string
	rate      float64
	sweep     string
	arrivals  string
	duration  time.Duration
	warmup    time.Duration
	workers   int
	seed      int64
	instances string
	level     int
	cores     int
	budget    float64
	timescale float64
	policy    string
	ctlEvery  time.Duration
	qos       time.Duration
	traceOut  string
	addrs     string
	ingestB   int
	ingestIvl time.Duration
	jsonOut   string
	metrics   string
	cpuProf   string
	memProf   string

	// Distributed-benchmark modes.
	agent         bool
	agentAddr     string
	agentAnnounce string
	coordinate    string
	spawn         int
	autotermDur   time.Duration
	autotermPct   float64
	poll          time.Duration
	startDelay    time.Duration
}

func main() {
	// The subcommands have their own flag sets and exit codes; dispatch
	// before the benchmark flags parse.
	if len(os.Args) > 1 && os.Args[1] == "cmp" {
		os.Exit(runCmp(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "tenant" {
		os.Exit(runTenant(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		os.Exit(runReplay(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "arbiter" {
		os.Exit(runArbiterBench(os.Args[2:]))
	}

	var o options
	flag.StringVar(&o.target, "target", "des", "engine to drive: live, des or dist")
	flag.StringVar(&o.appName, "app", "sirius", "application: sirius, nlp or websearch")
	flag.Float64Var(&o.rate, "rate", 4, "intended arrival rate (queries/s)")
	flag.StringVar(&o.sweep, "sweep", "", "comma-separated rates to sweep concurrently (overrides -rate)")
	flag.StringVar(&o.arrivals, "arrivals", "poisson", "arrival process: poisson, constant, ramp:<from>:<to>, diurnal:<mean>:<amp>:<period>, flash:<base>:<peak>:<at>:<dur> or replay:<file>")
	flag.DurationVar(&o.duration, "duration", 30*time.Second, "generation horizon")
	flag.DurationVar(&o.warmup, "warmup", 0, "trim ops whose intended start falls before this offset")
	flag.IntVar(&o.workers, "workers", 16, "issuing goroutines")
	flag.Int64Var(&o.seed, "seed", 7, "seed for the schedule and work draws")
	flag.StringVar(&o.instances, "instances", "", "per-stage instance counts, e.g. 1,1,2 (default: 1 each)")
	flag.IntVar(&o.level, "level", int(cmp.MidLevel), "initial DVFS level for every instance")
	flag.IntVar(&o.cores, "cores", 16, "chip size")
	flag.Float64Var(&o.budget, "budget", 0, "power budget in watts (0: derived from the initial configuration)")
	flag.Float64Var(&o.timescale, "timescale", 1, "live/dist wall compression: wall = virtual × timescale")
	flag.StringVar(&o.policy, "policy", "", "run a control policy during the load ("+strings.Join(replay.PolicyNames(), ", ")+"; empty: static)")
	flag.DurationVar(&o.ctlEvery, "ctl.interval", 25*time.Second, "control interval in virtual time (with -policy)")
	flag.DurationVar(&o.qos, "qos", 2*time.Second, "QoS target for the pegasus/saver policies")
	flag.StringVar(&o.traceOut, "trace.out", "", "record the control decision trace here (.jsonl or .jsonl.gz; needs -policy, single-rate runs)")
	flag.StringVar(&o.addrs, "addrs", "", "dist: connect to these stage services instead of self-hosting")
	flag.IntVar(&o.ingestB, "ingest.batch", 0, "dist: completions per stat delta (0: stats default 256)")
	flag.DurationVar(&o.ingestIvl, "ingest.interval", 0, "dist: stat-delta flush interval for partial batches (0: stats default 100ms)")
	flag.StringVar(&o.jsonOut, "json", "", "write the summary artifact here (\"-\" for stdout)")
	flag.StringVar(&o.metrics, "metrics.addr", "", "serve /metrics with the in-flight benchmark series")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.StringVar(&o.memProf, "memprofile", "", "write a heap profile at exit to this file")

	flag.BoolVar(&o.agent, "agent", false, "serve as a benchnet agent instead of running a benchmark")
	flag.StringVar(&o.agentAddr, "agent.addr", "127.0.0.1:0", "agent: listen address for the benchnet protocol")
	flag.StringVar(&o.agentAnnounce, "agent.announce", "", "agent: write the bound address to this file")
	flag.StringVar(&o.coordinate, "coordinate", "", "coordinate these comma-separated benchnet agents")
	flag.IntVar(&o.spawn, "agents.spawn", 0, "spawn this many local agent processes and coordinate them")
	flag.DurationVar(&o.autotermDur, "autoterm.dur", 0, "coordinator: stop once throughput is stable over this trailing window (0: run the full horizon)")
	flag.Float64Var(&o.autotermPct, "autoterm.pct", 7.5, "coordinator: allowed half-window throughput deviation in percent")
	flag.DurationVar(&o.poll, "poll", 250*time.Millisecond, "coordinator: progress poll interval")
	flag.DurationVar(&o.startDelay, "start.delay", 500*time.Millisecond, "coordinator: margin between arming agents and the common start epoch")
	flag.Parse()

	var err error
	switch {
	case o.agent:
		err = runAgent(o)
	case o.coordinate != "" || o.spawn > 0:
		err = runCoordinated(o)
	default:
		// Profiles flush in profiledRun's defers before os.Exit can fire.
		err = profiledRun(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench:", err)
		os.Exit(1)
	}
}

// profiledRun wraps run with the optional -cpuprofile / -memprofile capture,
// so the hot paths (ingest, windows, loadgen) can be inspected with
// `go tool pprof` without instrumenting a server.
func profiledRun(o options) error {
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProf != "" {
		defer func() {
			f, err := os.Create(o.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "powerbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is current
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "powerbench: -memprofile:", err)
			}
		}()
	}
	return run(o)
}

// specFromOptions translates the flag set into the benchnet run spec — the
// single description both the in-process driver and remote agents build
// their targets from.
func specFromOptions(o options, rate float64) (benchnet.RunSpec, error) {
	instances, err := parseInstances(o.instances)
	if err != nil {
		return benchnet.RunSpec{}, err
	}
	var addrs []string
	if o.addrs != "" {
		addrs = strings.Split(o.addrs, ",")
	}
	return benchnet.RunSpec{
		Proto:     benchnet.ProtoVersion,
		Target:    o.target,
		App:       o.appName,
		Instances: instances,
		Level:     o.level,
		Cores:     o.cores,
		BudgetW:   o.budget,
		TimeScale: o.timescale,
		Addrs:     addrs,
		Arrivals:  o.arrivals,
		RateQPS:   rate,
		Duration:  o.duration,
		Warmup:    o.warmup,
		Workers:   o.workers,
		Seed:      o.seed,

		IngestBatch:    o.ingestB,
		IngestInterval: o.ingestIvl,
	}, nil
}

func run(o options) error {
	rates := []float64{o.rate}
	var err error
	if o.sweep != "" {
		if rates, err = parseRates(o.sweep); err != nil {
			return err
		}
	}

	if o.traceOut != "" {
		if len(rates) > 1 {
			return fmt.Errorf("-trace.out supports single-rate runs (one trace per file)")
		}
		if o.policy == "" || o.policy == "static" {
			return fmt.Errorf("-trace.out needs an active -policy (static runs decide nothing)")
		}
	}

	var reg *telemetry.Registry
	if o.metrics != "" {
		if len(rates) > 1 {
			return fmt.Errorf("-metrics.addr supports single-rate runs (sweep runs share metric names)")
		}
		reg = telemetry.NewRegistry()
		serveMetrics(o.metrics, reg)
	}

	// One target per rate, built fresh so sweep points are independent; runs
	// proceed concurrently across goroutines (the §8 parallel load sweep).
	sums := make([]loadgen.Summary, len(rates))
	errs := make([]error, len(rates))
	var wg sync.WaitGroup
	for i, rate := range rates {
		wg.Add(1)
		go func(i int, rate float64) {
			defer wg.Done()
			sums[i], errs[i] = runOne(o, rate, reg)
		}(i, rate)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rate %.1f/s: %w", rates[i], err)
		}
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].RateQPS < sums[j].RateQPS })

	if err := loadgen.WriteTable(os.Stdout, sums...); err != nil {
		return err
	}
	return writeSummaries(o.jsonOut, sums...)
}

func serveMetrics(addr string, reg *telemetry.Registry) {
	go func() {
		srv := &http.Server{Addr: addr, Handler: telemetry.Handler(reg, nil, nil)}
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "powerbench: metrics server:", err)
		}
	}()
	fmt.Printf("metrics on http://%s/metrics\n", addr)
}

// runOne builds the target for one load point and runs the benchmark.
func runOne(o options, rate float64, reg *telemetry.Registry) (_ loadgen.Summary, retErr error) {
	spec, err := specFromOptions(o, rate)
	if err != nil {
		return loadgen.Summary{}, err
	}
	target, draw, err := benchnet.BuildTarget(spec)
	if err != nil {
		return loadgen.Summary{}, err
	}
	defer target.Close()

	// Optional control plane: the policy adjusts the deployment while the
	// benchmark load runs, through the target's engine-appropriate clock.
	if o.policy != "" && o.policy != "static" {
		mk, err := powerchief.PolicyByName(o.policy, o.qos)
		if err != nil {
			return loadgen.Summary{}, err
		}
		ca, ok := target.(loadgen.ControlAttacher)
		if !ok {
			return loadgen.Summary{}, fmt.Errorf("target %s cannot attach a control loop", target.Name())
		}
		copts := loadgen.ControlOptions{
			Policy:   mk(),
			Interval: o.ctlEvery,
			Scale:    o.timescale,
		}
		var rec *replay.Recorder
		if o.traceOut != "" {
			rec = replay.NewRecorder(replay.Header{
				Scenario: fmt.Sprintf("%s/%s", o.appName, o.arrivals),
				Seed:     o.seed,
				Policy:   o.policy,
			}, 0)
			copts.Tap = rec
		}
		loop, err := ca.AttachControl(copts)
		if err != nil {
			return loadgen.Summary{}, err
		}
		defer func() {
			loop.Stop()
			fmt.Printf("control[%s %.1f/s]: %d adjusts, boosts %v\n",
				o.policy, rate, loop.Total(), boostTally(loop.Boosts()))
			if rec == nil {
				return
			}
			if err := rec.WriteFile(o.traceOut); err != nil {
				if retErr == nil {
					retErr = fmt.Errorf("-trace.out: %w", err)
				}
				return
			}
			fmt.Printf("trace: %d decision frames (%d dropped) -> %s\n",
				rec.Len(), rec.Dropped(), o.traceOut)
		}()
	}

	sched, err := loadgen.ParseSchedule(o.arrivals, rate, o.seed)
	if err != nil {
		return loadgen.Summary{}, err
	}
	res, err := loadgen.Run(target, loadgen.Options{
		Schedule: sched,
		Duration: o.duration,
		Warmup:   o.warmup,
		Workers:  o.workers,
		Seed:     o.seed,
		DrawWork: draw,
		Metrics:  reg,
	})
	if err != nil {
		return loadgen.Summary{}, err
	}
	sum := loadgen.Summarize(res)
	spec.StampProvenance(&sum)
	return sum, nil
}

// runAgent serves the benchnet protocol until the process is killed — the
// remote end of a distributed benchmark.
func runAgent(o options) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	ag := benchnet.NewAgent(nil, logf)
	addr, err := ag.Listen(o.agentAddr)
	if err != nil {
		return err
	}
	fmt.Printf("benchnet agent listening on %s\n", addr)
	if o.agentAnnounce != "" {
		if err := os.WriteFile(o.agentAnnounce, []byte(addr+"\n"), 0o644); err != nil {
			ag.Close()
			return fmt.Errorf("-agent.announce: %w", err)
		}
	}
	select {} // serve until killed
}

// runCoordinated fans one benchmark out across benchnet agents — addresses
// from -coordinate, locally spawned processes with -agents.spawn, or both —
// and prints the merged cluster-wide summary.
func runCoordinated(o options) error {
	if o.sweep != "" {
		return fmt.Errorf("-sweep is not supported in coordinated runs (one spec per run)")
	}
	if o.policy != "" && o.policy != "static" {
		return fmt.Errorf("-policy is not supported in coordinated runs yet")
	}
	spec, err := specFromOptions(o, o.rate)
	if err != nil {
		return err
	}

	// A dist spec without explicit addresses: host the shared system under
	// test here, so every agent drives the same deployment.
	if o.target == "dist" && len(spec.Addrs) == 0 {
		addrs, closeSvcs, err := benchnet.HostStageServices(spec)
		if err != nil {
			return err
		}
		defer closeSvcs()
		spec.Addrs = addrs
		fmt.Fprintf(os.Stderr, "powerbench: hosting shared stage services at %s\n", strings.Join(addrs, ","))
	}

	var agentAddrs []string
	if o.coordinate != "" {
		agentAddrs = strings.Split(o.coordinate, ",")
	}
	if o.spawn > 0 {
		spawned, cleanup, err := spawnAgents(o.spawn)
		if err != nil {
			return err
		}
		defer cleanup()
		agentAddrs = append(agentAddrs, spawned...)
	}
	if len(agentAddrs) == 0 {
		return fmt.Errorf("no agents: set -coordinate or -agents.spawn")
	}

	var reg *telemetry.Registry
	if o.metrics != "" {
		reg = telemetry.NewRegistry()
		serveMetrics(o.metrics, reg)
	}

	merged, err := benchnet.Coordinate(benchnet.Options{
		Addrs:       agentAddrs,
		Spec:        spec,
		StartDelay:  o.startDelay,
		Poll:        o.poll,
		AutoTermDur: o.autotermDur,
		AutoTermPct: o.autotermPct,
		Metrics:     reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	spec.StampProvenance(&merged)
	if err := loadgen.WriteTable(os.Stdout, merged); err != nil {
		return err
	}
	return writeSummaries(o.jsonOut, merged)
}

// spawnAgents forks n copies of this binary in -agent mode on ephemeral
// loopback ports, waits for each to announce its bound address, and returns
// the addresses plus a teardown killing the processes.
func spawnAgents(n int) ([]string, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "powerbench-agents-")
	if err != nil {
		return nil, nil, err
	}
	var procs []*exec.Cmd
	cleanup := func() {
		for _, p := range procs {
			if p.Process != nil {
				_ = p.Process.Kill()
				_ = p.Wait()
			}
		}
		os.RemoveAll(dir)
	}
	announces := make([]string, n)
	for i := 0; i < n; i++ {
		announces[i] = filepath.Join(dir, fmt.Sprintf("agent-%d.addr", i))
		cmd := exec.Command(exe, "-agent", "-agent.addr", "127.0.0.1:0", "-agent.announce", announces[i])
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("spawning agent %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}
	addrs := make([]string, n)
	deadline := time.Now().Add(10 * time.Second)
	for i, path := range announces {
		for {
			payload, err := os.ReadFile(path)
			if err == nil && len(payload) > 0 {
				addrs[i] = strings.TrimSpace(string(payload))
				break
			}
			if time.Now().After(deadline) {
				cleanup()
				return nil, nil, fmt.Errorf("agent %d never announced its address", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return addrs, cleanup, nil
}

// runCmp implements `powerbench cmp baseline.json fresh.json`, the gate over
// any two artifacts of one kind. Exit codes: 0 pass, 1 regression, 2 not
// comparable or unreadable.
func runCmp(args []string) int {
	fs := flag.NewFlagSet("powerbench cmp", flag.ExitOnError)
	force := fs.Bool("force", false, "compare even when kind or params differ")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: powerbench cmp [-force] baseline.json fresh.json")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var arts [2]*loadgen.Artifact
	for i := range arts {
		var err error
		if arts[i], err = loadgen.ReadArtifact(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "powerbench cmp:", err)
			return 2
		}
	}
	fails, warns, err := loadgen.Compare(arts[0], arts[1], *force)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench cmp:", err)
		return 2
	}
	for _, w := range warns {
		fmt.Fprintln(os.Stderr, "powerbench cmp: warning:", w)
	}
	for _, f := range fails {
		fmt.Println("REGRESSION", f)
	}
	if len(fails) > 0 {
		fmt.Println("FAIL")
		return 1
	}
	fmt.Printf("OK: %s, %d metrics within their bounds\n", arts[0].Kind, len(arts[0].Metrics))
	return 0
}

// emit ends a subcommand that produces an artifact: it writes the file and
// exits 1 exactly when the artifact lists a problem of its own.
func emit(name, path string, art loadgen.Artifact) int {
	if err := art.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	code := 0
	for _, p := range art.Problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
		code = 1
	}
	return code
}

func parseInstances(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad instance count %q", p)
		}
		out[i] = n
	}
	return out, nil
}

// boostTally renders the loop's per-kind decision counts in a fixed order.
func boostTally(b map[core.BoostKind]int) string {
	kinds := []core.BoostKind{core.BoostFrequency, core.BoostInstance, core.BoostNone}
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		if n := b[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q", p)
		}
		out = append(out, r)
	}
	return out, nil
}

// writeSummaries writes the runs of one invocation as one summary artifact.
func writeSummaries(path string, sums ...loadgen.Summary) error {
	art, err := loadgen.SummaryArtifact(sums...)
	if err != nil {
		return err
	}
	return art.WriteFile(path)
}
