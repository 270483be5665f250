package benchnet

import (
	"strings"
	"testing"
	"time"

	"powerchief/internal/loadgen"
)

func baselineSummary() loadgen.Summary {
	return summaryOf(benchSamples(8000), 1.05, 10000,
		loadgen.Provenance{GitRevision: "abc", GoVersion: "go1.22", Hostname: "ci", Agents: 1})
}

func TestCompareSelfPasses(t *testing.T) {
	s := baselineSummary()
	regs, warns, err := Compare(s, s, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
	if len(warns) != 0 {
		t.Fatalf("self-comparison warned: %v", warns)
	}
}

func TestCompareFlagsP99Regression(t *testing.T) {
	old := baselineSummary()
	// Inject a 2× tail regression: double every sample above ~the p95, leave
	// the body alone. p99/p999 blow past their thresholds; p50 must not.
	samples := benchSamples(8000)
	for i, s := range samples {
		if s > 95*time.Millisecond {
			samples[i] = 2 * s
		}
	}
	new := summaryOf(samples, 1.05, 10000, *old.Provenance)

	regs, _, err := Compare(old, new, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, r := range regs {
		found[r.Metric] = true
	}
	if !found["latency_p99_ms"] || !found["latency_p999_ms"] {
		t.Fatalf("2x tail not flagged: %v", regs)
	}
	if found["latency_p50_ms"] {
		t.Fatalf("median flagged though only the tail regressed: %v", regs)
	}
}

func TestCompareFlagsThroughputAndErrors(t *testing.T) {
	old := baselineSummary()
	new := baselineSummary()
	new.AchievedQPS = old.AchievedQPS * 0.8 // 20% drop > 10% default
	new.Errors = new.Issued / 20            // 5 points > 1 point default

	regs, _, err := Compare(old, new, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, r := range regs {
		found[r.Metric] = true
	}
	if !found["achieved_qps"] || !found["error_rate_pct"] {
		t.Fatalf("throughput/error regressions not flagged: %v", regs)
	}
}

func TestCompareRefusesDifferentExperiments(t *testing.T) {
	old := baselineSummary()
	for _, mutate := range []func(*loadgen.Summary){
		func(s *loadgen.Summary) { s.Seed = 99 },
		func(s *loadgen.Summary) { s.Schedule = "constant" },
		func(s *loadgen.Summary) { s.RateQPS = 50 },
		func(s *loadgen.Summary) { s.Duration = "20s" },
		func(s *loadgen.Summary) { s.Agents = 4 },
	} {
		new := baselineSummary()
		mutate(&new)
		if _, _, err := Compare(old, new, Thresholds{}); err == nil {
			t.Fatalf("comparison accepted a different experiment: %+v vs baseline", new)
		}
	}
}

func TestCompareForceDowngradesToWarnings(t *testing.T) {
	old := baselineSummary()
	new := baselineSummary()
	new.Seed = 99
	new.Provenance.GitRevision = "def"

	regs, warns, err := Compare(old, new, Thresholds{Force: true})
	if err != nil {
		t.Fatalf("force did not override the refusal: %v", err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	var sawSeed, sawRev bool
	for _, w := range warns {
		sawSeed = sawSeed || strings.Contains(w, "seed")
		sawRev = sawRev || strings.Contains(w, "git revision drift")
	}
	if !sawSeed || !sawRev {
		t.Fatalf("expected seed + revision warnings, got %v", warns)
	}
}

// TestCompareWarnsOnIngestBatchingDrift: a baseline measured at the default
// stat-delta sizes against a candidate with explicit (or different) batching
// has different statistic-staleness bounds — cmp warns instead of comparing
// silently.
func TestCompareWarnsOnIngestBatchingDrift(t *testing.T) {
	old := baselineSummary()
	new := baselineSummary()
	new.Provenance.IngestBatch = 256
	new.Provenance.IngestIntervalMS = 100

	regs, warns, err := Compare(old, new, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("ingest config drift must warn, not regress: %v", regs)
	}
	var saw bool
	for _, w := range warns {
		saw = saw || strings.Contains(w, "ingest batching drift")
	}
	if !saw {
		t.Fatalf("no ingest batching warning in %v", warns)
	}

	// Identical batching on both sides stays silent.
	old.Provenance.IngestBatch, old.Provenance.IngestIntervalMS = 256, 100
	if _, warns, err = Compare(old, new, Thresholds{}); err != nil || len(warns) != 0 {
		t.Fatalf("matched ingest config warned: %v (err %v)", warns, err)
	}
}

// TestRunSpecStampProvenance: a dist spec with batching enabled records its
// staleness configuration on the summary; other specs leave it untouched.
func TestRunSpecStampProvenance(t *testing.T) {
	sum := baselineSummary()
	RunSpec{Target: "dist", IngestBatch: 64, IngestInterval: 50 * time.Millisecond}.StampProvenance(&sum)
	if sum.Provenance.IngestBatch != 64 || sum.Provenance.IngestIntervalMS != 50 {
		t.Fatalf("stamped provenance = %+v", sum.Provenance)
	}

	// Interval 0 records the stats default, so two artifacts that ran the
	// same config spelled differently still compare clean.
	sum2 := baselineSummary()
	RunSpec{Target: "dist", IngestBatch: 64}.StampProvenance(&sum2)
	if sum2.Provenance.IngestIntervalMS != 100 {
		t.Fatalf("default interval stamp = %v, want 100ms", sum2.Provenance.IngestIntervalMS)
	}

	sum3 := baselineSummary()
	RunSpec{Target: "des", IngestBatch: 64}.StampProvenance(&sum3)
	if sum3.Provenance.IngestBatch != 0 {
		t.Fatalf("non-dist spec stamped ingest provenance: %+v", sum3.Provenance)
	}
}

func TestCompareFallsBackToStoredQuantiles(t *testing.T) {
	// Artifacts predating the histogram field carry only the quantile block.
	old := baselineSummary()
	old.LatencyHist = nil
	new := baselineSummary()
	new.LatencyHist = nil
	new.LatencyMS.P99 = old.LatencyMS.P99 * 2

	regs, _, err := Compare(old, new, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range regs {
		found = found || r.Metric == "latency_p99_ms"
	}
	if !found {
		t.Fatalf("histogram-less p99 regression not flagged: %v", regs)
	}
}
