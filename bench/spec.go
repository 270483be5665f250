package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Workload names are fixed: later issues cite them.
const (
	wlDESPaper    = "des-paper"
	wlDESCtlDense = "des-ctl-dense"
	wlFleet1k     = "fleet-1k"
	wlLiveClosed  = "live-closed"
	wlDistClosed  = "dist-closed"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{wlDESPaper, wlDESCtlDense, wlFleet1k, wlLiveClosed, wlDistClosed}

// metricDef names one reported metric, as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only
}

// BENCHMARK.json is the one place metrics are declared; loadSpec fills these
// from it. endToEnd is reported by every workload with tracing off (the
// per-workload meaning of "op" and "lat" is tabulated in README.md), perLayer
// by every workload's traced run: the probe battery, then the numbers taken
// from the passes of the named workload.
var (
	runSeconds int
	endToEnd   []metricDef
	perLayer   []metricDef
	unitIndex  map[string]string
)

// Metric is one measured value. Samples is the number of observations behind
// a median or percentile (0 for plain counts and ratios).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Metrics maps metric name to value.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, samples int) {
	m[name] = Metric{Value: v, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	u, ok := unitIndex[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	return u
}

// declared returns the names of defs that m holds, in declaration order.
func declared(m Metrics, defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.Name]; ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory (the
// repository root, where run.sh starts the binary) or one level up (where
// `go test` runs).
func readBenchmarkFile() (*benchmarkFile, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("bench: parsing BENCHMARK.json: %w", err)
		}
		return &f, nil
	}
	return nil, fmt.Errorf("bench: BENCHMARK.json not found: %w", lastErr)
}

// loadSpec reads BENCHMARK.json into the metric tables above; main and
// TestMain call it once before anything is measured.
func loadSpec() error {
	f, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	runSeconds, endToEnd, perLayer = f.RunSeconds, f.EndToEnd, f.PerLayer
	unitIndex = make(map[string]string, len(endToEnd)+len(perLayer))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			unitIndex[d.Name] = d.Unit
		}
	}
	return nil
}

// RunResult is the outcome of one workload run: what the last stdout line
// carries, plus the output digest and the failed checks spelled out.
type RunResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   Metrics `json:"metrics"`
	// Digest is the SHA-256 over the run's deterministic outputs (simulated
	// results, fleet counts); empty for the wall-clock workloads.
	Digest string `json:"digest,omitempty"`
	// Units is how many fixed-work units the time box admitted.
	Units int `json:"units"`
	// Problems lists every failed output check.
	Problems []string `json:"problems,omitempty"`
	// Detail holds workload-specific numbers that are printed but are not
	// benchmark metrics (per-policy throughput, span self-time table).
	Detail map[string]float64 `json:"detail,omitempty"`
	WallS  float64            `json:"wall_s"`

	// onMeasured, set by runWorkload, closes the memory sampling window; a
	// workload calls measured() the moment its timed phase ends, before it
	// turns samples into numbers.
	onMeasured func()
}

// measured marks the end of the run's timed phase (idempotent).
func (r *RunResult) measured() {
	if r.onMeasured != nil {
		r.onMeasured()
		r.onMeasured = nil
	}
}

// fail records one failed output check; each counts as one failed operation.
func (r *RunResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 32 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted output check and records it as failed when ok
// is false.
func (r *RunResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}
