package main

import (
	"flag"
	"fmt"
	"os"

	"powerchief/internal/fleet"
	"powerchief/internal/loadgen"
)

// arbiterBound is the relative drift the deterministic skewed-fleet scenario
// may show on a strategy's delays and on the improvement factor.
const arbiterBound = 0.25

// runArbiterBench implements `powerbench arbiter`: the deterministic
// skewed-bottleneck fleet DES scenario racing arbiter weighting strategies
// (proportional vs the breakdown-aware marginal by default) and recording
// the per-node bottleneck-delay distributions. `powerbench cmp` gates the
// artifact against the checked-in results/BENCH_arbiter.json.
// Exit codes: 0 success, 1 failure.
func runArbiterBench(args []string) int {
	fs := flag.NewFlagSet("powerbench arbiter", flag.ExitOnError)
	nodes := fs.Int("nodes", 0, "fleet size (0: scenario default)")
	duration := fs.Duration("duration", 0, "virtual run length (0: scenario default)")
	jsonOut := fs.String("json", "", "write the JSON artifact here (\"-\" for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: powerbench arbiter [flags]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	p := fleet.DefaultArbiterBenchParams()
	if *nodes > 0 {
		p.Nodes = *nodes
	}
	if *duration > 0 {
		p.Duration = *duration
	}
	res, err := fleet.RunArbiterBench(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench arbiter:", err)
		return 1
	}

	fmt.Printf("%-14s %8s %12s %12s %12s %14s %14s %14s\n",
		"STRATEGY", "SAMPLES", "MEAN(ms)", "P99(ms)", "MAX(ms)", "BOOST-MEAN(ms)", "BOOST-P99(ms)", "BOOST-MAX(ms)")
	for _, r := range res.Results {
		fmt.Printf("%-14s %8d %12.2f %12.2f %12.2f %14.2f %14.2f %14.2f\n",
			r.Strategy, r.Samples, r.MeanMS, r.P99MS, r.MaxMS, r.BoostMeanMS, r.BoostP99MS, r.BoostMaxMS)
	}
	if res.P99ImprovementX > 0 {
		fmt.Printf("%s boostable-p99 improvement over %s: %.2fx\n",
			res.Results[len(res.Results)-1].Strategy, res.Results[0].Strategy, res.P99ImprovementX)
	}

	return emit("powerbench arbiter", *jsonOut, arbiterArtifact(res))
}

// arbiterArtifact flattens the race into the envelope: per strategy the
// absolute tail and worst-node delays and the boostable tail — the delay the
// granted watts can still remove, which is what the strategies compete on —
// then the boostable-p99 improvement of the last strategy over the first.
func arbiterArtifact(res *fleet.ArbiterBench) loadgen.Artifact {
	art := loadgen.Artifact{
		Kind:       "arbiter",
		Provenance: loadgen.CaptureProvenance(),
		Params:     res.Params,
		Detail:     res.Results,
	}
	delay := func(name string, ms float64) loadgen.Metric {
		return loadgen.Metric{Name: name, Value: ms, Unit: "ms", Better: "lower", Bound: arbiterBound}
	}
	for _, r := range res.Results {
		art.Metrics = append(art.Metrics,
			delay(r.Strategy+".p99_ms", r.P99MS),
			delay(r.Strategy+".worst_node_mean_ms", r.WorstNodeMeanMS),
			delay(r.Strategy+".boost_p99_ms", r.BoostP99MS))
	}
	art.Metrics = append(art.Metrics, loadgen.Metric{
		Name: "p99_improvement_x", Value: res.P99ImprovementX, Unit: "x", Better: "higher", Bound: arbiterBound})
	return art
}
