// Command bench is the repository's benchmark: five fixed workloads over the
// three engines and the two upper control levels, four end-to-end metrics, a
// per-layer probe ledger and a traced pass. See README.md beside this file.
//
//	bash bench/run.sh --workload des-paper --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh -workload all -seed 7 -out bench/out/result.json
//	bash bench/run.sh -workload all -repeat 5 -out bench/out/a.json
//	bash bench/run.sh cmp bench/out/a.json bench/out/b.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"powerchief/internal/loadgen"
)

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks horizons, fleet size and input rings; 1 is the recorded
	// size and the only one the command line runs, bench_test.go sets 0.01.
	scale  float64
	outDir string
}

// box is the measured time box.
func (c runConfig) box() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// traceDir is where a traced run writes trace-<workload>.json, relative to
// the root of the checkout run.sh starts the driver in.
var traceDir = filepath.Join("bench", "out")

// A run sets up at least setupMinReps times and keeps going until it has
// spent setupBudget, so that a sub-millisecond set-up is the median of
// hundreds of samples; setup_s is that median.
const (
	setupMinReps = 9
	setupBudget  = 500 * time.Millisecond
)

// tracedPass is what a workload's traced pass hands back for the
// per-layer metrics taken from it.
type tracedPass struct {
	p99US      float64         // lat_us_p99 of the untraced reference, and its
	p99N       int             // sample count
	ticks      []time.Duration // real control ticks of the traced pass
	busy       time.Duration   // host time the traced pass measured over
	plainRate  float64         // ops/s of the untraced reference
	tracedRate float64         // ops/s with the wrappers on
}

// env is a set-up deployment a run measures and then tears down.
type env interface{ close() error }

type noEnv struct{}

func (noEnv) close() error { return nil }

// setup builds the workload's deployment once.
func setup(cfg runConfig) (env, error) {
	switch cfg.workload {
	case wlDESPaper, wlDESCtlDense:
		return noEnv{}, setupDES(cfg)
	case wlFleet1k:
		nodes, _, budget := fleetSize(cfg)
		return setupFleet(nodes, budget, cfg.seed, nil)
	case wlLiveClosed, wlDistClosed:
		return setupWall(cfg, nil)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// timedSetup sets up repeatedly, keeps the last deployment for the run and
// returns the median set-up time in seconds and the sample count.
func timedSetup(cfg runConfig) (env, float64, int, error) {
	var times []float64
	var last env
	var spent time.Duration
	settle()
	for len(times) < setupMinReps || spent < setupBudget {
		if last != nil {
			last.close()
		}
		start := time.Now()
		e, err := setup(cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
		last = e
	}
	return last, median(times), len(times), nil
}

// runWorkload executes one workload run and returns its result.
func runWorkload(cfg runConfig) (*RunResult, error) {
	started := time.Now()
	res := &RunResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Metrics: make(Metrics), Detail: make(map[string]float64),
	}
	var err error
	if cfg.trace {
		err = runTraced(cfg, res)
	} else {
		var e env
		var setupS float64
		var setups int
		if e, setupS, setups, err = timedSetup(cfg); err != nil {
			return nil, err
		}
		sampler := startRSSSampler()
		res.onMeasured = func() {
			mean, n, peak := sampler.finish()
			res.Metrics.set("rss_mb", mean, n)
			res.Detail["peak_rss_mb"] = peak
		}
		switch cfg.workload {
		case wlDESPaper, wlDESCtlDense:
			err = runDES(cfg, res)
		case wlFleet1k:
			err = runFleet(cfg, e.(*fleetEnv), res)
		default:
			err = runWall(cfg, e.(*wallEnv), res)
		}
		res.measured()
		e.close()
		res.Metrics.set("setup_s", setupS, setups)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.fail("the run attempted nothing")
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

// runTraced is a --trace 1 run: the probe battery, then the named workload
// untraced and traced side by side, then the span file.
func runTraced(cfg runConfig, res *RunResult) error {
	if err := runProbes(cfg, res); err != nil {
		return err
	}
	tr := newTracer()
	var tp *tracedPass
	var err error
	switch cfg.workload {
	case wlDESPaper, wlDESCtlDense:
		tp, err = traceDES(cfg, res, tr)
	case wlFleet1k:
		tp, err = traceFleet(cfg, res, tr)
	case wlLiveClosed, wlDistClosed:
		tp, err = traceWall(cfg, res, tr)
	default:
		err = fmt.Errorf("bench: unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return err
	}
	tickUS := durationsUS(tp.ticks)
	var tickSum time.Duration
	for _, d := range tp.ticks {
		tickSum += d
	}
	res.Metrics.set("lat_us_p99", tp.p99US, tp.p99N)
	res.Metrics.set("controlplane.ticks", float64(len(tickUS)), 0)
	res.Metrics.set("controlplane.tick_us_p50", quantile(tickUS, 0.50), len(tickUS))
	res.Metrics.set("controlplane.tick_us_p99", quantile(tickUS, 0.99), len(tickUS))
	res.Metrics.set("controlplane.tick_share", 100*tickSum.Seconds()/tp.busy.Seconds(), 0)
	res.Metrics.set("trace.spans", float64(tr.spanCount()), 0)
	res.Metrics.set("bench.trace_overhead_pct", 100*(tp.plainRate-tp.tracedRate)/tp.plainRate, 0)
	res.Detail["untraced_ops_per_s"] = tp.plainRate
	res.Detail["traced_ops_per_s"] = tp.tracedRate
	for _, lt := range tr.selfTimes() {
		res.Detail["self_us."+lt.Name] = lt.SelfUS
		res.Detail["mean_us."+lt.Name] = lt.MeanUS
		res.Detail["calls."+lt.Name] = float64(lt.Calls)
	}
	path, err := tr.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", tr.spanCount(), path)
	return nil
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins, for one seed, the running SHA-256 after each of the first
// units of the deterministic workloads.
type goldenFile struct {
	Seed  int64               `json:"seed"`
	Units map[string][]string `json:"units"`
}

// checkGolden compares the run's per-unit digests with the pinned ones, for
// as many units as both have. Other seeds and scales have no golden.
func checkGolden(cfg runConfig, res *RunResult, unitDigests []string) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		res.check(false, "golden.json: %v", err)
		return
	}
	if cfg.seed != g.Seed || cfg.scale != 1 {
		return
	}
	want := g.Units[cfg.workload]
	res.check(len(want) > 0, "golden.json pins no digest for %s", cfg.workload)
	for i := 0; i < len(want) && i < len(unitDigests); i++ {
		res.check(unitDigests[i] == want[i], "unit %d digest %s differs from golden %s", i, unitDigests[i], want[i])
	}
}

// Provenance is stamped into every result file.
type Provenance struct {
	loadgen.Provenance
	NumCPU     int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// ResultFile is what -out writes: provenance plus one entry per workload.
// With -repeat N each metric holds the median of N runs and Quartiles its
// first and third quartile.
type ResultFile struct {
	Provenance Provenance                       `json:"provenance"`
	Seed       int64                            `json:"seed"`
	Seconds    float64                          `json:"seconds"`
	Repeat     int                              `json:"repeat"`
	Runs       []*RunResult                     `json:"runs"`
	Quartiles  map[string]map[string][2]float64 `json:"quartiles,omitempty"`
}

func captureProvenance() Provenance {
	return Provenance{Provenance: loadgen.CaptureProvenance(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// printResult writes the human-readable block for one run, then the result
// line the benchmark contract asks for as the last line.
func printResult(w io.Writer, r *RunResult, defs []metricDef) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g traced=%v units=%d wall=%.1fs\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Units, r.WallS)
	for _, name := range declared(r.Metrics, defs) {
		m := r.Metrics[name]
		if m.Samples > 0 {
			fmt.Fprintf(w, "%-32s %16.6f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "%-32s %16.6f %-6s\n", name, m.Value, m.Unit)
		}
	}
	for _, name := range sortedKeys(r.Detail) {
		fmt.Fprintf(w, "  (%s = %.4f)\n", name, r.Detail[name])
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "digest %s\n", r.Digest)
	}
	fmt.Fprintf(w, "failed_share %d/%d\n", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]wire, len(r.Metrics))}
	for name, m := range r.Metrics {
		line.Metrics[name] = wire{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	// Every run is measured on one CPU with one P; pinToOneCPU says why.
	if _, err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if err := loadSpec(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(args) > 0 && args[0] == "cmp" {
		return runCmp(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 7, "the only source of randomness")
	seconds := fs.Float64("seconds", 0, "measured time box per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the probe battery and the traced pass and reports the per-layer metrics")
	repeat := fs.Int("repeat", 1, "run each workload N times and report median and quartiles")
	out := fs.String("out", "", "write the results to this JSON file")
	golden := fs.Int("write-golden", 0, "run N units of each deterministic workload and print golden.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *golden > 0 {
		return writeGolden(*seed, *golden, stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(runSeconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}

	file := &ResultFile{Provenance: captureProvenance(), Seed: *seed, Seconds: *seconds, Repeat: *repeat}
	ok := true
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: traceDir}
		var runs []*RunResult
		for i := 0; i < *repeat; i++ {
			r, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			runs = append(runs, r)
			if *repeat > 1 {
				fmt.Fprintf(stderr, "bench: %s run %d/%d done in %.1fs\n", name, i+1, *repeat, r.WallS)
			}
		}
		r, q := summarize(runs)
		if q != nil {
			if file.Quartiles == nil {
				file.Quartiles = make(map[string]map[string][2]float64)
			}
			file.Quartiles[name] = q
			printQuartiles(stdout, name, r, q, defs)
		}
		file.Runs = append(file.Runs, r)
		printResult(stdout, r, defs)
		ok = ok && r.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// summarize folds N runs of one workload into one result holding the median
// of every metric, plus the first and third quartile per metric. One run is
// returned as is.
func summarize(runs []*RunResult) (*RunResult, map[string][2]float64) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	out := *runs[len(runs)-1]
	out.Metrics = make(Metrics)
	out.Problems = nil
	out.Attempted, out.Failed = 0, 0
	quart := make(map[string][2]float64)
	for name, m := range runs[0].Metrics {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			vals = append(vals, r.Metrics[name].Value)
		}
		q1, q2, q3 := quartiles(vals)
		out.Metrics[name] = Metric{Value: q2, Unit: m.Unit, Samples: len(vals)}
		quart[name] = [2]float64{q1, q3}
	}
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Problems = append(out.Problems, r.Problems...)
		if r.Digest != runs[0].Digest {
			// The time box admitted different unit counts; the per-unit
			// golden check inside each run is the exact one.
			out.Digest = ""
		}
	}
	out.Correct = out.Failed == 0
	return &out, quart
}

func printQuartiles(w io.Writer, name string, r *RunResult, q map[string][2]float64, defs []metricDef) {
	fmt.Fprintf(w, "-- %s: median [Q1 .. Q3] (Q3-Q1)/median over %d runs\n", name, r.Metrics[defs[0].Name].Samples)
	for _, n := range declared(r.Metrics, defs) {
		m := r.Metrics[n]
		spread := 0.0
		if m.Value != 0 {
			spread = (q[n][1] - q[n][0]) / m.Value
		}
		fmt.Fprintf(w, "%-32s %16.6g [%.6g .. %.6g] %6.2f%%\n", n, m.Value, q[n][0], q[n][1], 100*spread)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeGolden runs exactly n units of each deterministic workload for the
// seed and prints the golden file to stdout.
func writeGolden(seed int64, n int, stdout, stderr io.Writer) int {
	g := goldenFile{Seed: seed, Units: make(map[string][]string)}
	for _, name := range []string{wlDESPaper, wlDESCtlDense, wlFleet1k} {
		cfg := runConfig{workload: name, seed: seed, scale: 1}
		res := &RunResult{Metrics: make(Metrics), Detail: make(map[string]float64)}
		switch name {
		case wlFleet1k:
			nodes, unitEpochs, budget := fleetSize(cfg)
			e, err := setupFleet(nodes, budget, seed, nil)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			g.Units[name] = runFleetUnits(e, unitEpochs, res, 0, n).unitDigests
			e.close()
		default:
			pass, err := runDESUnits(cfg, res, nil, 0, n)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			g.Units[name] = pass.unitDigests
		}
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %d checks failed: %v\n", name, res.Failed, res.Problems)
			return 1
		}
	}
	b, _ := json.MarshalIndent(g, "", " ") // strings only
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
