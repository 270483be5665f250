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

// The merged summary of a coordinated run is gated like any other artifact:
// flattened by loadgen.SummaryArtifact, compared by loadgen.Compare. These
// tests pin what that means for a summary.

func gate(t *testing.T, old, new loadgen.Summary, force bool) (fails, warns []string, err error) {
	t.Helper()
	base, err := loadgen.SummaryArtifact(old)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := loadgen.SummaryArtifact(new)
	if err != nil {
		t.Fatal(err)
	}
	return loadgen.Compare(&base, &fresh, force)
}

func named(lines []string, metric string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, metric+":") {
			return true
		}
	}
	return false
}

func TestCompareSelfPasses(t *testing.T) {
	s := baselineSummary()
	fails, warns, err := gate(t, s, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("self-comparison regressed: %v", fails)
	}
	if len(warns) != 0 {
		t.Fatalf("self-comparison warned: %v", warns)
	}
}

func TestCompareFlagsP99Regression(t *testing.T) {
	old := baselineSummary()
	// Inject a 4× tail regression: quadruple every sample above ~the p95, leave
	// the body alone. p99/p999 blow past their 200 % / 250 % bounds; p50 must
	// not move.
	samples := benchSamples(8000)
	for i, s := range samples {
		if s > 95*time.Millisecond {
			samples[i] = 4 * s
		}
	}
	new := summaryOf(samples, 1.05, 10000, *old.Provenance)

	fails, _, err := gate(t, old, new, false)
	if err != nil {
		t.Fatal(err)
	}
	if !named(fails, "latency_p99_ms") || !named(fails, "latency_p999_ms") {
		t.Fatalf("4x tail not flagged: %v", fails)
	}
	if named(fails, "latency_p50_ms") {
		t.Fatalf("median flagged though only the tail regressed: %v", fails)
	}

	// The same change read the other way is an improvement, and passes.
	if fails, _, err = gate(t, new, old, false); err != nil || len(fails) != 0 {
		t.Fatalf("a 4x better tail failed the gate: %v (err %v)", fails, err)
	}
}

func TestCompareFlagsThroughputAndErrors(t *testing.T) {
	old := baselineSummary()
	new := baselineSummary()
	new.AchievedQPS = old.AchievedQPS * 0.7 // 30% drop > 25%
	new.Errors = new.Issued / 20            // 5 points of error rate > 1

	fails, _, err := gate(t, old, new, false)
	if err != nil {
		t.Fatal(err)
	}
	if !named(fails, "achieved_qps") || !named(fails, "ok_pct") {
		t.Fatalf("throughput/error regressions not flagged: %v", fails)
	}
}

func TestCompareRefusesDifferentExperiments(t *testing.T) {
	old := baselineSummary()
	for _, mutate := range []func(*loadgen.Summary){
		func(s *loadgen.Summary) { s.Seed = 99 },
		func(s *loadgen.Summary) { s.Schedule = "constant" },
		func(s *loadgen.Summary) { s.RateQPS = 50 },
		func(s *loadgen.Summary) { s.Duration = "20s" },
		func(s *loadgen.Summary) { s.Warmup = "1s" },
		func(s *loadgen.Summary) { s.Agents = 4 },
	} {
		new := baselineSummary()
		mutate(&new)
		if _, _, err := gate(t, old, new, false); err == nil {
			t.Fatalf("comparison accepted a different experiment: %+v vs baseline", new)
		}
	}
}

func TestCompareForceDowngradesToWarnings(t *testing.T) {
	old := baselineSummary()
	new := baselineSummary()
	new.Seed = 99
	new.Provenance.GitRevision = "def"

	fails, warns, err := gate(t, old, new, true)
	if err != nil {
		t.Fatalf("force did not override the refusal: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected regressions: %v", fails)
	}
	var sawSeed, sawRev bool
	for _, w := range warns {
		sawSeed = sawSeed || strings.Contains(w, "params.seed")
		sawRev = sawRev || strings.Contains(w, "provenance.git_revision")
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

	fails, warns, err := gate(t, old, new, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("ingest config drift must warn, not regress: %v", fails)
	}
	if !named(warns, "provenance.ingest_batch") || !named(warns, "provenance.ingest_interval_ms") {
		t.Fatalf("no ingest batching warning in %v", warns)
	}

	// Identical batching on both sides stays silent.
	old.Provenance.IngestBatch, old.Provenance.IngestIntervalMS = 256, 100
	if _, warns, err = gate(t, old, new, false); err != nil || len(warns) != 0 {
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
