package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/loadgen"
	"powerchief/internal/replay"
	"powerchief/internal/stats"
)

// captured runs f with stdout and stderr redirected, and returns its exit
// code with everything it printed.
func captured(t *testing.T, f func() int) (int, string) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = tmp, tmp
	code := f()
	os.Stdout, os.Stderr = stdout, stderr
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// gate is `powerbench cmp args...`.
func gate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	return captured(t, func() int { return runCmp(args) })
}

func readArtifact(t *testing.T, path string) *loadgen.Artifact {
	t.Helper()
	a, err := loadgen.ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// edited writes a copy of the artifact at path with edit applied.
func edited(t *testing.T, path string, edit func(*loadgen.Artifact)) string {
	t.Helper()
	a := readArtifact(t, path)
	edit(a)
	out := filepath.Join(t.TempDir(), "edited.json")
	if err := a.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// editedRaw is edited for changes the envelope type cannot express.
func editedRaw(t *testing.T, path string, edit func(map[string]any)) string {
	t.Helper()
	payload, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(payload, &raw); err != nil {
		t.Fatal(err)
	}
	edit(raw)
	if payload, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "raw.json")
	if err := os.WriteFile(out, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// scale multiplies the named metric's value.
func scale(name string, by float64) func(*loadgen.Artifact) {
	return func(a *loadgen.Artifact) {
		for i := range a.Metrics {
			if a.Metrics[i].Name == name {
				a.Metrics[i].Value *= by
			}
		}
	}
}

func cliSummary(t *testing.T, inflateTail float64) loadgen.Summary {
	t.Helper()
	h := stats.NewHistogram(1.05)
	for i := 0; i < 5000; i++ {
		d := time.Duration(1+i%80) * time.Millisecond
		if i%100 == 0 {
			d = time.Duration(float64(400*time.Millisecond) * inflateTail)
		}
		h.Observe(d)
	}
	d := h.Digest()
	q, err := loadgen.QuantilesFromDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	return loadgen.Summary{
		Target: "des", Schedule: "poisson", RateQPS: 10, Duration: "30s",
		Workers: 16, Seed: 7, Agents: 1, Issued: 5000, Completed: 5000,
		WallMS: 30000, AchievedQPS: 5000 / 30.0,
		LatencyMS: q, LatencyHist: d,
	}
}

// writeSummary writes one summary artifact the way `-json` does.
func writeSummary(t *testing.T, name string, s loadgen.Summary) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := writeSummaries(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunCmpExitCodes pins the gate's contract: 0 on self-comparison, 1 on
// an injected tail regression, 2 when the runs are not comparable. The tail
// is inflated 4x: the summary kind's p99.9 bound is 250 %, so the 2x that
// tripped the old flag defaults is now inside it.
func TestRunCmpExitCodes(t *testing.T) {
	base := writeSummary(t, "base.json", cliSummary(t, 1))
	regressed := writeSummary(t, "regressed.json", cliSummary(t, 4))

	other := cliSummary(t, 1)
	other.Seed = 99
	foreign := writeSummary(t, "foreign.json", other)

	if code, out := gate(t, base, base); code != 0 {
		t.Fatalf("self-comparison exited %d, want 0\n%s", code, out)
	}
	if code, out := gate(t, base, regressed); code != 1 || !strings.Contains(out, "latency_p999_ms") {
		t.Fatalf("4x tail regression exited %d, want 1 naming latency_p999_ms\n%s", code, out)
	}
	if code, out := gate(t, base, foreign); code != 2 || !strings.Contains(out, "params.seed") {
		t.Fatalf("incomparable runs exited %d, want 2 naming params.seed\n%s", code, out)
	}
	if code, out := gate(t, "-force", base, foreign); code != 0 {
		t.Fatalf("forced comparison exited %d, want 0\n%s", code, out)
	}
	if code, _ := gate(t, base, filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Fatalf("missing file exited %d, want 2", code)
	}

	// (d) of the PR's "each gate still fails when it should": a 3x median.
	slow := edited(t, base, scale("latency_p50_ms", 3))
	if code, out := gate(t, base, slow); code != 1 || !strings.Contains(out, "latency_p50_ms") {
		t.Fatalf("3x p50 exited %d, want 1 naming latency_p50_ms\n%s", code, out)
	}
}

// desOptions is the flag set's defaults, on a 2 s open-loop DES run.
func desOptions() options {
	return options{
		target: "des", appName: "sirius", rate: 20, arrivals: "poisson",
		duration: 2 * time.Second, warmup: 250 * time.Millisecond, workers: 16, seed: 7,
		level: int(cmp.MidLevel), cores: 16, timescale: 1,
		ctlEvery: 25 * time.Second, qos: 2 * time.Second,
	}
}

// produced is one artifact a producer wrote, with what the rule table needs
// to know about its kind: a param to change and a metric to move.
type produced struct {
	kind, path    string
	param, metric string
}

// produce runs every producer in process at small scale: a 2 s DES run, a
// two-rate sweep, the tenant pair, the arbiter race on a reduced fleet, and
// the replay of a trace recorded here.
func produce(t *testing.T) []produced {
	t.Helper()
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	ok := func(what string, code int, out string) {
		t.Helper()
		if code != 0 {
			t.Fatalf("%s exited %d\n%s", what, code, out)
		}
	}
	drive := func(o options) func() int {
		return func() int {
			if err := run(o); err != nil {
				t.Error(err)
				return 1
			}
			return 0
		}
	}

	single, sweep, record := desOptions(), desOptions(), desOptions()
	single.jsonOut = in("run.json")
	sweep.sweep, sweep.jsonOut = "10,20", in("sweep.json")
	record.rate, record.duration, record.warmup = 3, 120*time.Second, 10*time.Second
	record.policy, record.traceOut = "powerchief", in("trace.jsonl.gz")
	for what, o := range map[string]options{"run": single, "sweep": sweep, "recording run": record} {
		code, out := captured(t, drive(o))
		ok(what, code, out)
	}
	code, out := captured(t, func() int { return runTenant([]string{"-json", in("tenant.json")}) })
	ok("tenant", code, out)
	code, out = captured(t, func() int {
		return runArbiterBench([]string{"-nodes", "12", "-duration", "40s", "-json", in("arbiter.json")})
	})
	ok("arbiter", code, out)
	code, out = captured(t, func() int {
		return runReplay([]string{"-trace", record.traceOut, "-policy", "powerchief,fairness", "-json", in("replay.json")})
	})
	ok("replay", code, out)

	return []produced{
		{"summary", in("run.json"), "seed", "latency_p99_ms"},
		{"summary", in("sweep.json"), "workers", "20/s.latency_p99_ms"},
		{"tenant", in("tenant.json"), "budget_watts", "arbitrated.combined_p99_ns"},
		{"arbiter", in("arbiter.json"), "nodes", "marginal.boost_p99_ms"},
		{"replay", in("replay.json"), "qos_ns", "fairness.p99_projected_ms"},
	}
}

// TestProducersWriteTheOneEnvelope: whatever powerbench writes decodes into
// the one type, says which producer wrote it, gates at least one metric with
// a declared direction and bound, and passes the gate against itself.
func TestProducersWriteTheOneEnvelope(t *testing.T) {
	for _, p := range produce(t) {
		a := readArtifact(t, p.path)
		if a.Kind != p.kind {
			t.Errorf("%s: kind %q, want %q", p.path, a.Kind, p.kind)
		}
		if len(a.Metrics) == 0 || len(a.Problems) != 0 || a.Params == nil || a.Provenance == nil || a.Detail == nil {
			t.Errorf("%s: incomplete envelope: %d metrics, problems %v", p.path, len(a.Metrics), a.Problems)
		}
		for _, m := range a.Metrics {
			if m.Bound <= 0 || m.Unit == "" {
				t.Errorf("%s: metric %+v declares no bound or unit", p.path, m)
			}
		}
		if code, out := gate(t, p.path, p.path); code != 0 || strings.Contains(out, "warning") {
			t.Errorf("%s: self-comparison exited %d\n%s", p.path, code, out)
		}
	}
}

// TestCmpRulesHoldForEveryKind is the gate's rule table, run against what
// each producer really writes.
func TestCmpRulesHoldForEveryKind(t *testing.T) {
	made := produce(t)
	for i, p := range made {
		t.Run(filepath.Base(p.path), func(t *testing.T) {
			var bound float64
			for _, m := range readArtifact(t, p.path).Metrics {
				if m.Name == p.metric {
					bound = m.Bound
				}
			}
			if bound == 0 {
				t.Fatalf("no metric %s in %s", p.metric, p.path)
			}
			other := made[(i+2)%len(made)] // the neighbour of the sweep is a summary too
			dropMetric := func(a *loadgen.Artifact) {
				for i, m := range a.Metrics {
					if m.Name == p.metric {
						a.Metrics = append(a.Metrics[:i], a.Metrics[i+1:]...)
						return
					}
				}
			}
			rules := []struct {
				name        string
				base, fresh string
				code        int
				says        []string
			}{
				{"self", p.path, p.path, 0, []string{"OK"}},
				// All gated metrics here are lower-is-better: past the bound
				// one way is a regression, the same distance the other way is
				// an improvement.
				{"past its bound", p.path, edited(t, p.path, scale(p.metric, 1+bound+0.05)), 1, []string{"REGRESSION " + p.metric}},
				{"improved as much", edited(t, p.path, scale(p.metric, 1+bound+0.05)), p.path, 0, nil},
				{"metric missing from fresh", p.path, edited(t, p.path, dropMetric), 1, []string{"REGRESSION " + p.metric, "missing"}},
				{"metric only in fresh", edited(t, p.path, dropMetric), p.path, 0, []string{"warning: " + p.metric}},
				{"params differ", p.path, edited(t, p.path, func(a *loadgen.Artifact) {
					a.Params.(map[string]any)[p.param] = "changed"
				}), 2, []string{"params." + p.param}},
				{"kinds differ", p.path, other.path, 2, []string{`"` + p.kind + `"`, `"` + other.kind + `"`}},
				{"fresh lists a problem", p.path, edited(t, p.path, func(a *loadgen.Artifact) {
					a.Problems = []string{"something the producer saw"}
				}), 1, []string{"REGRESSION problem: something the producer saw"}},
				{"baseline lists a problem", edited(t, p.path, func(a *loadgen.Artifact) {
					a.Problems = []string{"fixed since"}
				}), p.path, 0, nil},
				{"provenance drift", p.path, edited(t, p.path, func(a *loadgen.Artifact) {
					a.Provenance.(map[string]any)["hostname"] = "elsewhere"
				}), 0, []string{"warning: provenance.hostname"}},
				{"unknown field", p.path, editedRaw(t, p.path, func(raw map[string]any) { raw["results"] = 1 }), 2, []string{"results"}},
				{"no kind", editedRaw(t, p.path, func(raw map[string]any) { delete(raw, "kind") }), p.path, 2, []string{"no kind"}},
			}
			for _, r := range rules {
				code, out := gate(t, r.base, r.fresh)
				if code != r.code {
					t.Errorf("%s: exit %d, want %d\n%s", r.name, code, r.code, out)
				}
				for _, s := range r.says {
					if !strings.Contains(out, s) {
						t.Errorf("%s: output does not say %q\n%s", r.name, s, out)
					}
				}
			}
			if code, out := gate(t, "-force", p.path, other.path); code == 2 || !strings.Contains(out, "warning: forced past kind") {
				t.Errorf("-force across kinds exited %d\n%s", code, out)
			}
		})
	}
}

// TestArbiterGateSeesItsHeadline: the checked-in arbiter baseline against the
// doctored artifact that passed the old gate — Marginal's boostable p99 2.5x
// worse and the improvement factor inverted, while the saturated absolute
// p99 and worst-node delay the old gate read stay at 300 ms.
func TestArbiterGateSeesItsHeadline(t *testing.T) {
	const baseline = "../../results/BENCH_arbiter.json"
	doctored := edited(t, baseline, func(a *loadgen.Artifact) {
		for i, m := range a.Metrics {
			switch m.Name {
			case "marginal.boost_p99_ms":
				a.Metrics[i].Value = 400
			case "p99_improvement_x":
				a.Metrics[i].Value = 0.48
			}
		}
	})
	code, out := gate(t, baseline, doctored)
	if code != 1 || !strings.Contains(out, "REGRESSION marginal.boost_p99_ms") || !strings.Contains(out, "REGRESSION p99_improvement_x") {
		t.Fatalf("doctored arbiter artifact exited %d, want 1 naming both metrics\n%s", code, out)
	}
	if strings.Count(out, "REGRESSION") != 2 {
		t.Fatalf("metrics the doctoring left alone regressed\n%s", out)
	}
}

// TestTenantArtifactsCompareOneExperiment: alpha is part of the experiment
// exactly when the strategy reads it, a better run passes, and a budget
// violation reaches the gate as a problem.
func TestTenantArtifactsCompareOneExperiment(t *testing.T) {
	dir := t.TempDir()
	tenant := func(name string, args ...string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if code, out := captured(t, func() int { return runTenant(append(args, "-json", path)) }); code != 0 {
			t.Fatalf("tenant %v exited %d\n%s", args, code, out)
		}
		return path
	}
	alpha2 := tenant("alpha2.json", "-arbiter", "fairness", "-alpha", "2")
	alpha3 := tenant("alpha3.json", "-arbiter", "fairness", "-alpha", "3")
	if code, out := gate(t, alpha2, alpha3); code != 2 || !strings.Contains(out, "params.alpha") {
		t.Fatalf("fairness alpha 2 vs 3 exited %d, want 2 naming params.alpha\n%s", code, out)
	}
	prop := tenant("proportional.json")
	if _, has := readArtifact(t, prop).Params.(map[string]any)["alpha"]; has {
		t.Fatal("a proportional artifact records an alpha no strategy read")
	}

	better := edited(t, prop, scale("arbitrated.combined_p99_ns", 0.7))
	if code, out := gate(t, prop, better); code != 0 {
		t.Fatalf("a 30%% better arbitrated p99 exited %d, want 0\n%s", code, out)
	}

	// One violating epoch, through the flattener the command uses.
	a := readArtifact(t, prop)
	var params tenantParams
	var detail tenantDetail
	for _, pair := range [][2]any{{a.Params, &params}, {a.Detail, &detail}} {
		payload, err := json.Marshal(pair[0])
		if err == nil {
			err = json.Unmarshal(payload, pair[1])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	detail.Arbitrated.Violations = 1
	violating := filepath.Join(dir, "violating.json")
	if err := tenantArtifact(params, detail).WriteFile(violating); err != nil {
		t.Fatal(err)
	}
	if code, out := gate(t, prop, violating); code != 1 || !strings.Contains(out, "1 budget-hierarchy violations in the arbitrated run") {
		t.Fatalf("one budget violation exited %d, want 1 through problems\n%s", code, out)
	}
	if code, _ := gate(t, violating, prop); code != 0 {
		t.Fatalf("a violation in the baseline only exited %d, want 0", code)
	}
}

// TestReplayDeterminismLostFailsTwice: a trace whose recorded plans the
// recording policy no longer reproduces fails `powerbench replay` itself
// (unless -nogate) and, through the artifact's problems, the cmp gate.
func TestReplayDeterminismLostFailsTwice(t *testing.T) {
	dir := t.TempDir()
	o := desOptions()
	o.rate, o.duration, o.warmup = 3, 120*time.Second, 10*time.Second
	o.policy, o.traceOut = "powerchief", filepath.Join(dir, "trace.jsonl.gz")
	if code, out := captured(t, func() int {
		if err := run(o); err != nil {
			t.Error(err)
			return 1
		}
		return 0
	}); code != 0 {
		t.Fatalf("recording run failed\n%s", out)
	}
	replayTo := func(trace, name string, extra ...string) (string, int, string) {
		path := filepath.Join(dir, name)
		code, out := captured(t, func() int {
			return runReplay(append([]string{"-trace", trace, "-json", path}, extra...))
		})
		return path, code, out
	}
	good, code, out := replayTo(o.traceOut, "good.json")
	if code != 0 || !strings.Contains(out, "OK: determinism gate") {
		t.Fatalf("replay of a fresh trace exited %d\n%s", code, out)
	}

	tr, err := replay.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	tr.Frames[0].Plan = append(tr.Frames[0].Plan, core.ActionRecord{Kind: "never-planned"})
	tampered := filepath.Join(dir, "tampered.jsonl.gz")
	if err := replay.WriteFile(tampered, tr); err != nil {
		t.Fatal(err)
	}
	bad, code, out := replayTo(tampered, "bad.json")
	if code != 1 || !strings.Contains(out, "FAIL: determinism gate") {
		t.Fatalf("replay of a tampered trace exited %d, want 1\n%s", code, out)
	}
	if code, out := gate(t, good, bad); code != 1 || !strings.Contains(out, "REGRESSION problem: determinism gate") {
		t.Fatalf("cmp on a determinism-lost artifact exited %d, want 1\n%s", code, out)
	}
	if _, code, out := replayTo(tampered, "nogate.json", "-nogate"); code != 0 {
		t.Fatalf("-nogate on a tampered trace exited %d, want 0\n%s", code, out)
	}

	// The trace's header is provenance: another seed is visible, not fatal.
	reseeded := edited(t, good, func(a *loadgen.Artifact) {
		a.Provenance.(map[string]any)["trace"].(map[string]any)["seed"] = 99
	})
	if code, out := gate(t, good, reseeded); code != 0 || !strings.Contains(out, "warning: provenance.trace.seed") {
		t.Fatalf("trace header drift exited %d, want 0 with a warning\n%s", code, out)
	}
}
