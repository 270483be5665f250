package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/fleet"
	"powerchief/internal/loadgen"
	"powerchief/internal/sim"
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

	p := defaultArbiterBenchParams()
	if *nodes > 0 {
		p.Nodes = *nodes
	}
	if *duration > 0 {
		p.Duration = *duration
	}
	res, err := raceArbiters(p)
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
func arbiterArtifact(res *arbiterRace) loadgen.Artifact {
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

// arbiterBenchParams scripts the skewed-bottleneck fleet scenario racing
// arbiter weighting strategies against each other. Every node runs a
// two-stage pipeline: an ingress stage at a fixed reference speed (watts
// cannot help it) and a compute stage whose delay scales inversely with the
// granted budget. The skew fraction spreads the fleet from concentrated
// bottlenecks (tiny ingress, all delay in compute — watts keep paying off)
// to balanced pipelines (ingress as slow as compute — watts saturate once
// compute catches up to the fixed stage). A breakdown-aware strategy
// (arbiter.Marginal) sees the saturation through the per-stage protrusion
// and redirects watts to nodes still improvable; Proportional keeps feeding
// saturated nodes by their absolute slowness.
type arbiterBenchParams struct {
	Nodes int `json:"nodes"`
	// Budget and Floor configure the coordinator ledger.
	Budget cmp.Watts `json:"budget_watts"`
	Floor  cmp.Watts `json:"floor_watts"`
	// RefWatts is the fixed effective wattage of the unboostable ingress
	// stage: a node with skew fraction f saturates once its grant reaches
	// RefWatts/f.
	RefWatts cmp.Watts     `json:"ref_watts"`
	Interval time.Duration `json:"interval_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Warmup excludes the initial convergence transient from the scores.
	Warmup time.Duration `json:"warmup_ns"`
	// Strategies are raced in order; the first is the comparison baseline.
	Strategies []string `json:"strategies"`
}

// defaultArbiterBenchParams is the recorded benchmark scenario.
func defaultArbiterBenchParams() arbiterBenchParams {
	return arbiterBenchParams{
		Nodes:      60,
		Budget:     780,
		Floor:      10,
		RefWatts:   10,
		Interval:   time.Second,
		Duration:   120 * time.Second,
		Warmup:     30 * time.Second,
		Strategies: []string{"proportional", "marginal"},
	}
}

// arbiterStrategyResult summarizes one strategy's run over two
// distributions, both per node per post-warmup sample:
//
//   - the absolute bottleneck delay (Equation 1 worst stage) — nodes whose
//     fixed ingress stage dominates pin this at a floor no allocation can
//     buy down, so fleets with heavy balanced pipelines tie here;
//   - the boostable delay, max(compute − ingress, 0) — the part of the
//     bottleneck the granted watts can still remove, i.e. the
//     responsiveness actually under the arbiter's control.
type arbiterStrategyResult struct {
	Strategy string  `json:"strategy"`
	Samples  int     `json:"samples"`
	MeanMS   float64 `json:"mean_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
	// WorstNodeMeanMS averages the per-sample fleet-worst delay — the
	// steady-state cluster tail the strategies compete on.
	WorstNodeMeanMS float64 `json:"worst_node_mean_ms"`
	// BoostMeanMS / BoostP99MS / BoostMaxMS summarize the boostable delay.
	BoostMeanMS float64 `json:"boost_mean_ms"`
	BoostP99MS  float64 `json:"boost_p99_ms"`
	BoostMaxMS  float64 `json:"boost_max_ms"`
}

// arbiterRace is the benchmark's result (recorded as
// results/BENCH_arbiter.json): same params, same numbers.
type arbiterRace struct {
	Params  arbiterBenchParams      `json:"params"`
	Results []arbiterStrategyResult `json:"results"`
	// P99ImprovementX is baseline boostable-p99 / last-strategy
	// boostable-p99: how much better the last strategy converts the budget
	// into removing removable delay than the first, baseline strategy.
	P99ImprovementX float64 `json:"p99_improvement_x"`
}

// arbiterBenchNode is the deterministic skewed-bottleneck fleet.Transport:
// ingress delay frac·load/RefWatts (fixed — watts cannot buy it down),
// compute delay load/granted. The reported metric is the worst stage, with
// the per-stage breakdown attached so breakdown-aware strategies can see how
// far the bottleneck protrudes.
type arbiterBenchNode struct {
	name       string
	load, frac float64
	ref        cmp.Watts

	budget cmp.Watts
	epoch  uint64
}

func (n *arbiterBenchNode) ingress() time.Duration {
	return time.Duration(n.frac * n.load / float64(n.ref) * float64(time.Second))
}

func (n *arbiterBenchNode) compute() time.Duration {
	w := math.Max(float64(n.budget), 1)
	return time.Duration(n.load / w * float64(time.Second))
}

// bottleneck is the node's Equation 1 worst-stage delay — both the reported
// metric and the responsiveness measure the benchmark scores.
func (n *arbiterBenchNode) bottleneck() time.Duration {
	if in := n.ingress(); in > n.compute() {
		return in
	}
	return n.compute()
}

// Name implements fleet.Transport.
func (n *arbiterBenchNode) Name() string { return n.name }

// Report implements fleet.Transport.
func (n *arbiterBenchNode) Report() (fleet.Report, error) {
	return fleet.Report{
		Node:   n.name,
		Epoch:  n.epoch,
		Metric: n.bottleneck(),
		Draw:   n.budget,
		Budget: n.budget,
		Stages: []arbiter.StageMetric{
			{Stage: "ingress", Metric: n.ingress()},
			{Stage: "compute", Metric: n.compute()},
		},
	}, nil
}

// Grant implements fleet.Transport.
func (n *arbiterBenchNode) Grant(g fleet.Grant) error {
	if g.Epoch < n.epoch {
		return fmt.Errorf("arbiter bench: grant epoch %d behind accepted %d", g.Epoch, n.epoch)
	}
	n.epoch = g.Epoch
	n.budget = g.Watts
	return nil
}

// strategyByName resolves the raced weighting strategies.
func strategyByName(name string) (arbiter.Strategy, error) {
	switch name {
	case "proportional":
		return arbiter.Proportional{}, nil
	case "marginal":
		return arbiter.Marginal{}, nil
	case "fairness":
		return arbiter.Fairness{Alpha: 2}, nil
	default:
		return nil, fmt.Errorf("unknown arbiter strategy %q (have proportional, marginal, fairness)", name)
	}
}

// raceArbiters races each strategy over its own fresh copy of the
// skewed-bottleneck fleet in virtual time and records the bottleneck-delay
// distributions. Fully deterministic: same params, same artifact bytes.
func raceArbiters(p arbiterBenchParams) (*arbiterRace, error) {
	if p.Nodes <= 0 || p.Interval <= 0 || p.Duration <= 0 {
		return nil, fmt.Errorf("arbiter bench needs nodes, an interval and a duration")
	}
	if len(p.Strategies) == 0 {
		return nil, fmt.Errorf("arbiter bench needs at least one strategy")
	}
	out := &arbiterRace{Params: p}
	for _, name := range p.Strategies {
		strat, err := strategyByName(name)
		if err != nil {
			return nil, err
		}
		res, err := runArbiterStrategy(p, name, strat)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
	}
	if n := len(out.Results); n > 1 && out.Results[n-1].BoostP99MS > 0 {
		out.P99ImprovementX = out.Results[0].BoostP99MS / out.Results[n-1].BoostP99MS
	}
	return out, nil
}

// runArbiterStrategy runs one strategy over a fresh fleet. The adjust loop
// registers on the engine before the sampler, so at equal timestamps each
// sample observes the post-adjust grants — the same determinism contract
// fleet.RunFleetSim rides on.
func runArbiterStrategy(p arbiterBenchParams, name string, strat arbiter.Strategy) (arbiterStrategyResult, error) {
	eng := sim.NewEngine()
	nodes := make([]*arbiterBenchNode, p.Nodes)
	transports := make([]fleet.Transport, p.Nodes)
	// A fixed load spread crossed with a skew spread: every load class
	// appears at every skew fraction, so the strategies differ only in how
	// they read the breakdown, not in which loads they face.
	fracs := []float64{0.05, 0.35, 0.65, 1.0}
	for i := range nodes {
		n := &arbiterBenchNode{
			name: fmt.Sprintf("node-%03d", i),
			load: 1 + float64(i%5)*0.5,
			frac: fracs[i%len(fracs)],
			ref:  p.RefWatts,
		}
		nodes[i] = n
		transports[i] = n
	}
	coord, err := fleet.NewCoordinator(fleet.Options{
		Budget: p.Budget,
		Floor:  p.Floor,
		Now:    eng.Now,
	}, transports...)
	if err != nil {
		return arbiterStrategyResult{}, err
	}
	loop, err := controlplane.Start(controlplane.SimClock(eng), coord, controlplane.Options{
		Policy:   arbiter.New(strat).WithName("fleet-rebalance"),
		Interval: p.Interval,
	})
	if err != nil {
		return arbiterStrategyResult{}, err
	}

	res := arbiterStrategyResult{Strategy: name}
	var delays, boosts []float64
	var worstSum float64
	stopSample := eng.Every(p.Interval, func() {
		if eng.Now() < p.Warmup {
			return
		}
		worst := 0.0
		for _, n := range nodes {
			d := float64(n.bottleneck()) / float64(time.Millisecond)
			delays = append(delays, d)
			if d > worst {
				worst = d
			}
			b := float64(n.compute()-n.ingress()) / float64(time.Millisecond)
			if b < 0 {
				b = 0
			}
			boosts = append(boosts, b)
		}
		worstSum += worst
		res.Samples++
	})

	eng.RunUntil(p.Duration)
	stopSample()
	loop.Stop()

	if len(delays) > 0 {
		var sum float64
		for _, d := range delays {
			sum += d
		}
		res.MeanMS = sum / float64(len(delays))
		res.P99MS = quantileF(delays, 0.99)
		res.MaxMS = quantileF(delays, 1)
		res.WorstNodeMeanMS = worstSum / float64(res.Samples)
		var bsum float64
		for _, b := range boosts {
			bsum += b
		}
		res.BoostMeanMS = bsum / float64(len(boosts))
		res.BoostP99MS = quantileF(boosts, 0.99)
		res.BoostMaxMS = quantileF(boosts, 1)
	}
	return res, nil
}

// quantileF is the nearest-rank quantile over a sorted copy.
func quantileF(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
