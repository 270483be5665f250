package loadgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerchief/internal/stats"
)

func artifactSummary(rate float64) Summary {
	h := stats.NewHistogram(1.05)
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(1+i%50) * time.Millisecond)
	}
	prov := Provenance{GitRevision: "abc", GoVersion: "go1.22", Hostname: "ci", Agents: 1}
	return Summary{
		Target: "des", Schedule: "poisson", RateQPS: rate, Duration: "10s", Workers: 4, Seed: 7,
		Issued: 1000, Completed: 1000, WallMS: 10000, AchievedQPS: 100,
		LatencyHist: h.Digest(), Provenance: &prov,
	}
}

// An artifact built in process (typed params, a provenance struct) and the
// same artifact read back from its file are the same thing to Compare.
func TestArtifactFileRoundTripComparesEqual(t *testing.T) {
	built, err := SummaryArtifact(artifactSummary(10))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	read, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*Artifact{{&built, read}, {read, &built}} {
		fails, warns, err := Compare(pair[0], pair[1], false)
		if err != nil || len(fails) != 0 || len(warns) != 0 {
			t.Fatalf("round trip differs: fails %v warns %v err %v", fails, warns, err)
		}
	}
	if err := built.WriteFile(""); err != nil {
		t.Fatalf("the empty path writes nothing: %v", err)
	}
}

func TestSummaryArtifactNamesSweepMetricsByRate(t *testing.T) {
	a, err := SummaryArtifact(artifactSummary(2.5), artifactSummary(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Metrics) != 10 || a.Metrics[0].Name != "2.5/s.achieved_qps" || a.Metrics[9].Name != "20/s.ok_pct" {
		t.Fatalf("sweep metrics: %+v", a.Metrics)
	}
	one, err := SummaryArtifact(artifactSummary(20))
	if err != nil {
		t.Fatal(err)
	}
	if one.Metrics[0].Name != "achieved_qps" {
		t.Fatalf("a single run's metrics carry no rate: %+v", one.Metrics[0])
	}
	if _, _, err := Compare(&one, &a, false); err == nil || !strings.Contains(err.Error(), "params.rates_qps") {
		t.Fatalf("a run against a sweep: %v, want not comparable on params.rates_qps", err)
	}

	bare := artifactSummary(20)
	bare.LatencyHist = nil
	if _, err := SummaryArtifact(bare); err == nil {
		t.Fatal("a summary without its histogram has no quantiles to gate")
	}
}

func TestCompareDirectionsAndZeroBaseline(t *testing.T) {
	base := &Artifact{Kind: "k", Metrics: []Metric{
		{Name: "speed", Value: 100, Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "delay", Value: 100, Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "errors", Value: 0, Unit: "count", Better: "lower", Bound: 0.1},
	}}
	with := func(speed, delay, errors float64) *Artifact {
		a := *base
		a.Metrics = append([]Metric(nil), base.Metrics...)
		a.Metrics[0].Value, a.Metrics[1].Value, a.Metrics[2].Value = speed, delay, errors
		return &a
	}
	for _, c := range []struct {
		fresh *Artifact
		fails []string
	}{
		{with(91, 109, 0), nil},
		{with(89, 100, 0), []string{"speed"}},
		{with(100, 111, 0), []string{"delay"}},
		{with(500, 1, 0), nil},
		{with(50, 200, 0), []string{"speed", "delay"}},
		// Nothing is a relative change against zero: such a metric is
		// recorded, and a producer that needs it gated lists a problem.
		{with(100, 100, 5), nil},
	} {
		fails, _, err := Compare(base, c.fresh, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(fails) != len(c.fails) {
			t.Fatalf("fresh %+v: fails %v, want %v", c.fresh.Metrics, fails, c.fails)
		}
		for i, name := range c.fails {
			if !strings.HasPrefix(fails[i], name+":") {
				t.Fatalf("fresh %+v: fails %v, want %v", c.fresh.Metrics, fails, c.fails)
			}
		}
	}
}

func TestReadArtifactIsStrict(t *testing.T) {
	const good = `{"kind":"k","provenance":{},"params":{},"metrics":[{"name":"m","value":1,"unit":"ms","better":"lower","bound":0.1}]}`
	for name, c := range map[string]struct{ payload, says string }{
		"good":                 {good, ""},
		"another shape":        {`{"target":"des","latency_ms":{"p99":3}}`, "unknown field"},
		"unknown top field":    {strings.Replace(good, `"kind"`, `"results":[],"kind"`, 1), "unknown field"},
		"unknown metric field": {strings.Replace(good, `"bound"`, `"tolerance":1,"bound"`, 1), "unknown field"},
		"no kind":              {strings.Replace(good, `"kind":"k",`, "", 1), "no kind"},
		"no direction":         {strings.Replace(good, `"better":"lower",`, "", 1), "want lower or higher"},
		"not json":             {"latency 3ms", "not a powerbench artifact"},
	} {
		path := filepath.Join(t.TempDir(), "a.json")
		if err := os.WriteFile(path, []byte(c.payload), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadArtifact(path)
		switch {
		case c.says == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case c.says != "" && (err == nil || !strings.Contains(err.Error(), c.says)):
			t.Errorf("%s: error %v, want one saying %q", name, err, c.says)
		}
	}
	if _, err := ReadArtifact(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing file read as an artifact")
	}
}
