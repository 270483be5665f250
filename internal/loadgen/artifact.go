package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
)

// Artifact is the one envelope every powerbench mode writes with -json and
// the only shape `powerbench cmp` reads — the fields of the repository
// benchmark's result line (bench/spec.go), so a gate can later move there
// as it is.
type Artifact struct {
	// Kind names the producer: summary, tenant, arbiter or replay.
	Kind string `json:"kind"`
	// Provenance is where the numbers came from: build, toolchain, host,
	// ingest batching, a replayed trace's header. A difference between two
	// artifacts is worth a warning, never a failure.
	Provenance any `json:"provenance"`
	// Params is the experiment. Artifacts that differ in any of its fields
	// are not comparable.
	Params any `json:"params"`
	// Metrics are the gated numbers, each with the bound its producer
	// declares for it.
	Metrics []Metric `json:"metrics"`
	// Problems are the producer's own verdicts on the run (a budget
	// violation, determinism lost); one in a fresh artifact fails the gate.
	Problems []string `json:"problems,omitempty"`
	// Detail is the producer's full result, for people and plots.
	Detail any `json:"detail,omitempty"`
}

// Metric is one gated number. Bound is the relative change in the worse
// direction — Better is "lower" or "higher" — that a fresh run may show
// against the artifact that recorded the bound.
type Metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// WriteFile writes the artifact as indented JSON: to stdout for "-", nowhere
// for the empty path.
func (a Artifact) WriteFile(path string) error {
	if path == "" {
		return nil
	}
	payload, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(payload)
		return err
	}
	return os.WriteFile(path, payload, 0o644)
}

// ReadArtifact decodes strictly: a file with a field the envelope does not
// have, without a kind, or with a metric that names no direction is some
// other shape, and is refused.
func ReadArtifact(path string) (*Artifact, error) {
	payload, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("%s: not a powerbench artifact: %w", path, err)
	}
	if a.Kind == "" {
		return nil, fmt.Errorf("%s: not a powerbench artifact: no kind", path)
	}
	for _, m := range a.Metrics {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return &a, nil
}

// Compare is the gate: one rule set for every kind. A different kind or any
// differing param refuses the comparison (err; force downgrades it to a
// warning). Provenance drift and metrics only the fresh artifact has warn.
// The gate fails on a baseline metric the fresh artifact lacks, on one that
// moved in its worse direction by more than the bound the baseline recorded
// (an improvement never fails), and on any problem the fresh artifact lists.
func Compare(base, fresh *Artifact, force bool) (fails, warns []string, err error) {
	mismatch := diff("params", fields(base.Params), fields(fresh.Params))
	if base.Kind != fresh.Kind {
		mismatch = append([]string{fmt.Sprintf("kind: baseline %q vs fresh %q", base.Kind, fresh.Kind)}, mismatch...)
	}
	if len(mismatch) > 0 {
		if !force {
			return nil, nil, fmt.Errorf("not comparable: %s (-force compares anyway)", strings.Join(mismatch, "; "))
		}
		warns = append(warns, "forced past "+strings.Join(mismatch, "; "))
	}
	warns = append(warns, diff("provenance", fields(base.Provenance), fields(fresh.Provenance))...)

	got := make(map[string]Metric, len(fresh.Metrics))
	for _, m := range fresh.Metrics {
		got[m.Name] = m
	}
	for _, m := range base.Metrics {
		f, ok := got[m.Name]
		delete(got, m.Name)
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from the fresh artifact", m.Name))
			continue
		}
		if m.Value == 0 {
			continue // no relative change against a zero baseline
		}
		worse := (f.Value - m.Value) / math.Abs(m.Value)
		if m.Better == "higher" {
			worse = -worse
		}
		if worse > m.Bound {
			fails = append(fails, fmt.Sprintf("%s: %.6g -> %.6g %s (%.1f%% worse, bound %.0f%%)",
				m.Name, m.Value, f.Value, m.Unit, 100*worse, 100*m.Bound))
		}
	}
	for _, m := range fresh.Metrics {
		if _, isNew := got[m.Name]; isNew {
			warns = append(warns, fmt.Sprintf("%s: new in the fresh artifact, not gated", m.Name))
		}
	}
	for _, p := range fresh.Problems {
		fails = append(fails, "problem: "+p)
	}
	return fails, warns, nil
}

// fields is v as the JSON object a file would hold, so an artifact built in
// process and one read back compare alike.
func fields(v any) (m map[string]any) {
	if b, err := json.Marshal(v); err == nil {
		_ = json.Unmarshal(b, &m) // a non-object has no fields: m stays nil
	}
	return m
}

// diff lists, by dotted path, where two decoded JSON values disagree.
func diff(path string, a, b any) []string {
	am, aok := a.(map[string]any)
	bm, bok := b.(map[string]any)
	if !aok || !bok {
		if reflect.DeepEqual(a, b) {
			return nil
		}
		return []string{fmt.Sprintf("%s: baseline %v vs fresh %v", path, a, b)}
	}
	keys := make([]string, 0, len(am))
	for k := range am {
		keys = append(keys, k)
	}
	for k := range bm {
		if _, both := am[k]; !both {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		out = append(out, diff(path+"."+k, am[k], bm[k])...)
	}
	return out
}

// The summary kind gates wall-clock runs, so its bounds are loose: they
// catch a broken merge, a stalled shard or a latency cliff, not scheduler
// jitter. ok_pct is the share of issued operations that did not fail; from a
// clean baseline its 1 % is one point of error rate.
const (
	boundQPS  = 0.25
	boundP50  = 1.5
	boundP99  = 2.0
	boundP999 = 2.5
	boundOK   = 0.01
)

// SummaryArtifact flattens one run, or the runs of one sweep (metric names
// then carry their rate), into the envelope. The quantiles come from the
// serialized histogram, the record that merges exactly.
func SummaryArtifact(sums ...Summary) (Artifact, error) {
	first := sums[0]
	a := Artifact{Kind: "summary", Provenance: first.Provenance, Detail: sums}
	rates := make([]float64, len(sums))
	for i, s := range sums {
		q, err := QuantilesFromDigest(s.LatencyHist)
		if err != nil {
			return Artifact{}, err
		}
		rates[i] = s.RateQPS
		prefix, okPct := "", 100.0
		if len(sums) > 1 {
			prefix = fmt.Sprintf("%g/s.", s.RateQPS)
		}
		if s.Issued > 0 {
			okPct = 100 * (1 - float64(s.Errors)/float64(s.Issued))
		}
		a.Metrics = append(a.Metrics,
			Metric{prefix + "achieved_qps", s.AchievedQPS, "1/s", "higher", boundQPS},
			Metric{prefix + "latency_p50_ms", q.P50, "ms", "lower", boundP50},
			Metric{prefix + "latency_p99_ms", q.P99, "ms", "lower", boundP99},
			Metric{prefix + "latency_p999_ms", q.P999, "ms", "lower", boundP999},
			Metric{prefix + "ok_pct", okPct, "%", "higher", boundOK})
	}
	a.Params = map[string]any{
		"target": first.Target, "schedule": first.Schedule, "rates_qps": rates,
		"duration": first.Duration, "warmup": first.Warmup, "workers": first.Workers,
		"seed": first.Seed, "self_paced": first.SelfPaced, "agents": max(first.Agents, 1),
	}
	return a, nil
}
