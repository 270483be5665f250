package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"powerchief/internal/loadgen"
	"powerchief/internal/replay"
)

// replayBound is the relative drift a policy's projected p99 may show when
// one trace is replayed by two builds.
const replayBound = 0.25

// runReplay implements `powerbench replay`: the offline policy arena. It
// loads a decision trace (recorded by a harness run or a -trace.out
// benchmark), replays every requested policy against the recorded snapshots
// in shadow mode, and prints a policy-vs-policy projected tail-latency
// table. The recording policy is always replayed as the determinism gate:
// it must reproduce its recorded plans byte-identically.
//
// Exit codes: 0 gate passed, 1 determinism gate failed, 2 unreadable trace
// or unknown policy.
func runReplay(args []string) int {
	fs := flag.NewFlagSet("powerbench replay", flag.ExitOnError)
	tracePath := fs.String("trace", "", "decision trace (.jsonl or .jsonl.gz)")
	policyList := fs.String("policy", "", "comma-separated arena policies to replay (default: the trace's recording policy)")
	qos := fs.Duration("qos", 0, "QoS target for the pegasus/saver candidates")
	jsonOut := fs.String("json", "", "write the comparison artifact here (\"-\" for stdout)")
	noGate := fs.Bool("nogate", false, "skip the determinism gate (for traces whose recording policy this build cannot reproduce)")
	list := fs.Bool("list", false, "list the registered arena policies and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: powerbench replay -trace t.jsonl.gz [-policy powerchief,fairness,marginal] [-json out.json]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *list {
		fmt.Println(strings.Join(replay.PolicyNames(), "\n"))
		return 0
	}
	if *tracePath == "" {
		fs.Usage()
		return 2
	}

	t, err := replay.ReadFile(*tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench replay:", err)
		return 2
	}

	names := []string{t.Header.Policy}
	if *policyList != "" {
		names = nil
		for _, p := range strings.Split(*policyList, ",") {
			if p = strings.TrimSpace(p); p != "" {
				names = append(names, p)
			}
		}
	}
	// The recording policy always replays: its score is the determinism gate.
	gateIdx := -1
	for i, n := range names {
		if n == t.Header.Policy {
			gateIdx = i
			break
		}
	}
	if gateIdx < 0 && !*noGate {
		names = append([]string{t.Header.Policy}, names...)
		gateIdx = 0
	}

	out, err := replay.Run(t, names, *qos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench replay:", err)
		return 2
	}

	fmt.Printf("trace: %s seed=%d policy=%s frames=%d span=%v\n",
		t.Header.Scenario, t.Header.Seed, t.Header.Policy, len(t.Frames), t.Duration())
	fmt.Printf("%-22s %7s %7s %9s %5s %14s %14s %14s\n",
		"POLICY", "FRAMES", "BOOSTS", "MATCH", "DET", "MEAN-PROJ(ms)", "P99-PROJ(ms)", "MAX-PROJ(ms)")
	for _, s := range out.Policies {
		det := "-"
		if s.Policy == t.Header.Policy {
			det = "no"
			if s.Deterministic {
				det = "yes"
			}
		}
		fmt.Printf("%-22s %7d %7d %5d/%-3d %5s %14.2f %14.2f %14.2f\n",
			s.Policy, s.Frames, s.Boosts, s.PlanMatches, s.Frames, det,
			s.MeanProjectedMS, s.P99ProjectedMS, s.MaxProjectedMS)
	}

	art := replayArtifact(out, *qos)
	if !*noGate && gateIdx >= 0 {
		if gate := out.Policies[gateIdx]; gate.Deterministic {
			fmt.Printf("OK: determinism gate: %s reproduced all %d recorded plans byte-identically\n",
				gate.Policy, gate.Frames)
		} else {
			art.Problems = append(art.Problems, fmt.Sprintf("determinism gate: %s reproduced %d/%d recorded plans",
				gate.Policy, gate.PlanMatches, gate.Frames))
		}
	}
	return emit("powerbench replay", *jsonOut, art)
}

// replayArtifact flattens an arena comparison into the envelope. What was
// replayed — the trace's header, its length — is provenance, not params:
// replaying yesterday's trace with today's build is the point of the arena,
// it just has to be visible.
func replayArtifact(out *replay.Comparison, qos time.Duration) loadgen.Artifact {
	art := loadgen.Artifact{
		Kind: "replay",
		Provenance: struct {
			loadgen.Provenance
			Trace  replay.Header `json:"trace"`
			Frames int           `json:"frames"`
		}{loadgen.CaptureProvenance(), out.Trace, out.Frames},
		Params: map[string]any{"qos_ns": qos},
		Detail: out.Policies,
	}
	for _, s := range out.Policies {
		art.Metrics = append(art.Metrics, loadgen.Metric{
			Name: s.Policy + ".p99_projected_ms", Value: s.P99ProjectedMS, Unit: "ms", Better: "lower", Bound: replayBound})
	}
	return art
}
