package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smallConfig is a workload at 1/100 scale inside a 50 ms box.
func smallConfig(workload string, trace bool, dir string) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 0.05, trace: trace, scale: 0.01, outDir: dir}
}

// TestMain loads the metric tables from BENCHMARK.json, as main does.
func TestMain(m *testing.M) {
	if err := loadSpec(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMeetsTheContract checks what the driver cannot derive:
// the workloads are the ones it runs, names are well-formed and used once,
// bounds are in range. That every declared metric is emitted, with its unit,
// is checked by the two tests that run the workloads.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(bf.Workloads), len(workloadNames))
	}
	seen := make(map[string]bool)
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, w.Name, workloadNames[i])
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: malformed, or name used twice", m)
		}
		seen[m.Name] = true
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

// TestWorkloadsEmitEveryEndToEndMetric runs every workload untraced at small
// scale: all output checks pass and exactly the declared metrics come out,
// none of them zero.
func TestWorkloadsEmitEveryEndToEndMetric(t *testing.T) {
	for _, name := range workloadNames {
		res, err := runWorkload(smallConfig(name, false, t.TempDir()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d problems=%v", name, res.Correct, res.Attempted, res.Problems)
		}
		checkNames(t, name, res.Metrics, endToEnd, true)
	}
}

// TestTracedRunEmitsEveryPerLayerMetric runs the probe battery and one
// traced pass per engine family, and checks the span file.
func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	for _, name := range []string{wlDESCtlDense, wlFleet1k, wlDistClosed} {
		dir := t.TempDir()
		res, err := runWorkload(smallConfig(name, true, dir))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: problems=%v", name, res.Problems)
		}
		checkNames(t, name, res.Metrics, perLayer, false)
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatalf("%s: span file: %v", name, err)
		}
		if len(tf.Spans) == 0 || len(tf.Layers) == 0 || tf.Workload != name {
			t.Errorf("%s: span file has %d spans, %d layers", name, len(tf.Spans), len(tf.Layers))
		}
		for i, s := range tf.Spans {
			if s.EndNS < s.StartNS || s.Parent >= i {
				t.Fatalf("%s: span %d malformed: %+v", name, i, s)
			}
		}
	}
}

func checkNames(t *testing.T, workload string, got Metrics, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", workload, d.Name, m.Unit, d.Unit)
		}
		if nonZero && !(m.Value > 0) {
			t.Errorf("%s: %s = %v, want > 0", workload, d.Name, m.Value)
		}
	}
}

// TestSecondSeedHasItsOwnStableDigest: -seed is the only source of
// randomness, so a seed repeats its digest and two seeds differ.
func TestSecondSeedHasItsOwnStableDigest(t *testing.T) {
	digest := func(workload string, seed int64) string {
		cfg := smallConfig(workload, false, "")
		cfg.seed = seed
		res := &RunResult{Metrics: make(Metrics), Detail: make(map[string]float64)}
		if workload == wlFleet1k {
			nodes, unitEpochs, budget := fleetSize(cfg)
			e, err := setupFleet(nodes, budget, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			return runFleetUnits(e, unitEpochs, res, 0, 2).unitDigests[1]
		}
		pass, err := runDESUnits(cfg, res, nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pass.unitDigests[0]
	}
	for _, w := range []string{wlDESPaper, wlDESCtlDense, wlFleet1k} {
		a, b, c := digest(w, 7), digest(w, 7), digest(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share digest %s", w, a)
		}
	}
}

// TestCmpExitCodes drives `bench cmp`: 0 on a self-comparison, on an
// improvement and on a set-up that moved by less than the absolute floor, 1
// when a metric moved past its bound the wrong way, 2 on unusable input or
// files that hold different runs; a pair whose own quartile distance exceeds
// the bound reads "unresolved".
func TestCmpExitCodes(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, seed int64, ops, setup, opsQ1, opsQ3 float64) string {
		r := &RunResult{Workload: wlFleet1k, Correct: true, Attempted: 1, Metrics: Metrics{}}
		r.Metrics.set("ops_per_s", ops, 1)
		r.Metrics.set("lat_us_p50", 100, 1)
		r.Metrics.set("setup_s", setup, 1)
		f := &ResultFile{Seed: seed, Seconds: 20, Repeat: 1, Runs: []*RunResult{r}}
		if opsQ3 > 0 {
			f.Repeat = 5
			f.Quartiles = map[string]map[string][2]float64{wlFleet1k: {"ops_per_s": {opsQ1, opsQ3}}}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("a.json", 7, 1000, 0.001, 0, 0)
	slow := mk("b.json", 7, 500, 0.001, 0, 0)
	fast := mk("c.json", 7, 2000, 0.002, 0, 0) // set-up doubled, but by 1 ms
	slowSetup := mk("d.json", 7, 1000, 0.5, 0, 0)
	otherSeed := mk("e.json", 8, 1000, 0.001, 0, 0)
	noisy := mk("f.json", 7, 1000, 0.001, 700, 1300)
	for _, tc := range []struct {
		args []string
		want int
		says string
	}{
		{[]string{"cmp", base, base}, 0, " ok"},
		{[]string{"cmp", base, fast}, 0, " ok"},
		{[]string{"cmp", base, slow}, 1, "REGRESSED"},
		{[]string{"cmp", base, slowSetup}, 1, "REGRESSED"},
		{[]string{"cmp", base, noisy}, 0, "unresolved"},
		{[]string{"cmp", base, otherSeed}, 2, ""},
		{[]string{"cmp", base}, 2, ""},
		{[]string{"cmp", base, filepath.Join(dir, "missing.json")}, 2, ""},
	} {
		var out, errb bytes.Buffer
		if got := realMain(tc.args, &out, &errb); got != tc.want || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%v: exit %d, want %d and %q\n%s%s", tc.args, got, tc.want, tc.says, out.String(), errb.String())
		}
	}
}

// TestQuartilesMatchPythonExclusive pins the spread arithmetic to
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestResultLineHasExactlyTheContractKeys checks the last stdout line.
func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	// The command line runs full-size workloads only; one unit of fleet-1k
	// (2000 epochs, under a second) is the cheapest of them.
	var out, errb bytes.Buffer
	args := []string{"--workload", wlFleet1k, "--seed", "7", "--seconds", "0.05", "--trace", "0"}
	if code := realMain(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the result line, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("%s: metric object keys %v, want value and unit", name, m)
		}
	}
}

// threadCPULists returns the Cpus_allowed_list of every thread of the process.
func threadCPULists(t *testing.T) []string {
	t.Helper()
	tasks, err := filepath.Glob("/proc/self/task/*/status")
	if err != nil || len(tasks) == 0 {
		t.Fatalf("no threads under /proc/self/task: %v", err)
	}
	var out []string
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread has exited
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "Cpus_allowed_list:") {
				out = append(out, strings.TrimSpace(strings.TrimPrefix(line, "Cpus_allowed_list:")))
			}
		}
	}
	return out
}

// TestPinToOneCPU: pinned, every thread may run on one and the same CPU; the
// returned function gives the previous mask back.
func TestPinToOneCPU(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("affinity is set on Linux only")
	}
	before := threadCPULists(t)[0]
	restore, err := pinToOneCPU()
	if err != nil {
		t.Fatal(err)
	}
	pinned := threadCPULists(t)
	for _, l := range pinned {
		if l != pinned[0] || strings.ContainsAny(l, ",-") {
			t.Errorf("pinned threads may run on %q, want one CPU for all", pinned)
			break
		}
	}
	restore()
	for _, l := range threadCPULists(t) {
		if l != before {
			t.Errorf("after restore a thread may run on %q, before pinning %q", l, before)
		}
	}
}
