// Command experiments regenerates every table and figure of the paper's
// evaluation section (§8) on the discrete-event engine and writes the
// results under -out (default ./results):
//
//	figure2.txt        normalized latency when boosting single Sirius stages
//	figure4.txt        freq vs inst boosting at low/high load
//	figure10.txt       Sirius latency improvement (3 loads × 3 policies)
//	figure11-*.csv     runtime behaviour traces (instances + frequencies)
//	figure12.txt       NLP latency improvement
//	figure13.txt       Sirius QoS power saving (PowerChief vs Pegasus)
//	figure13-*.csv     power/latency time series per policy
//	figure14.txt       Web Search QoS power saving
//	figure14-*.csv     power/latency time series per policy
//	tail.txt           tail-latency distribution per policy (§10 future work)
//	ablations.txt      design-choice ablations (metric, withdraw, split-clone,
//	                   balance threshold, dispatcher)
//	decisions.txt      the Command Center's decision audit timeline for an
//	                   audited PowerChief run (identify / boost / recycle)
//	headline.txt       the abstract's aggregate numbers, paper vs measured
//	BENCH_fleet.json   fleet-federation robustness record: a 100-node DES
//	                   fleet, 10 nodes partitioned mid-run, budget invariant
//	                   and reclamation/recovery timings per epoch
//
// Use -fig to regenerate a single experiment
// (2,4,10,11,12,13,14,tail,ablations,decisions,fleet).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/fleet"
	"powerchief/internal/harness"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

func main() {
	var (
		out  = flag.String("out", "results", "output directory")
		fig  = flag.String("fig", "all", "experiment to run: 2, 4, 10, 11, 12, 13, 14, sweep, tail, ablations, decisions, fleet or all")
		seed = flag.Int64("seed", 7, "random seed shared by all experiments")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	start := time.Now()
	var f10, f12 *harness.Figure
	var f13, f14 *harness.QoSResult

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			fatal(fmt.Errorf("figure %s: %w", name, err))
		}
		fmt.Printf("figure %-3s done in %v\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("2", func() error {
		res, err := harness.Figure2(*seed)
		if err != nil {
			return err
		}
		return writeTo(*out, "figure2.txt", func(w io.Writer) error {
			return harness.WriteFigure2(w, res)
		})
	})

	run("4", func() error {
		res, err := harness.Figure4(*seed)
		if err != nil {
			return err
		}
		return writeTo(*out, "figure4.txt", func(w io.Writer) error {
			return harness.WriteFigure(w, res)
		})
	})

	run("10", func() error {
		res, err := harness.Figure10(*seed)
		if err != nil {
			return err
		}
		f10 = res
		return writeTo(*out, "figure10.txt", func(w io.Writer) error {
			return harness.WriteFigure(w, res)
		})
	})

	run("11", func() error {
		res, err := harness.Figure11(*seed)
		if err != nil {
			return err
		}
		for _, r := range res.Runs {
			name := fmt.Sprintf("figure11-%s.csv", r.Policy)
			if err := writeTo(*out, name, func(w io.Writer) error {
				return harness.WriteRuntimeTrace(w, r)
			}); err != nil {
				return err
			}
		}
		return nil
	})

	run("12", func() error {
		res, err := harness.Figure12(*seed)
		if err != nil {
			return err
		}
		f12 = res
		return writeTo(*out, "figure12.txt", func(w io.Writer) error {
			return harness.WriteFigure(w, res)
		})
	})

	qos := func(name string, fn func(int64) (*harness.QoSResult, error), store **harness.QoSResult) func() error {
		return func() error {
			res, err := fn(*seed)
			if err != nil {
				return err
			}
			*store = res
			if err := writeTo(*out, name+".txt", func(w io.Writer) error {
				return harness.WriteQoS(w, res)
			}); err != nil {
				return err
			}
			for _, r := range res.Runs {
				csv := fmt.Sprintf("%s-%s.csv", name, r.Policy)
				if err := writeTo(*out, csv, func(w io.Writer) error {
					return harness.WriteRuntimeTrace(w, r.Result)
				}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	run("13", qos("figure13", harness.Figure13, &f13))
	run("14", qos("figure14", harness.Figure14, &f14))

	run("sweep", func() error {
		res, err := harness.BudgetSweep(mustApp("sirius"), workloadHigh(), harness.DefaultSweepBudgets(), *seed)
		if err != nil {
			return err
		}
		return writeTo(*out, "sweep.txt", func(w io.Writer) error {
			return harness.WriteSweep(w, res)
		})
	})

	run("tail", func() error {
		res, err := harness.TailAnalysis(*seed)
		if err != nil {
			return err
		}
		return writeTo(*out, "tail.txt", func(w io.Writer) error {
			return harness.WriteTail(w, res)
		})
	})

	run("ablations", func() error {
		studies := []func(int64) (*harness.AblationResult, error){
			harness.AblationMetric,
			harness.AblationWithdraw,
			harness.AblationSplitClone,
			harness.AblationBalanceThreshold,
			harness.AblationDispatcher,
		}
		return writeTo(*out, "ablations.txt", func(w io.Writer) error {
			for _, study := range studies {
				res, err := study(*seed)
				if err != nil {
					return err
				}
				if err := harness.WriteAblation(w, res); err != nil {
					return err
				}
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			return nil
		})
	})

	run("fleet", func() error {
		// The recorded fleet-federation benchmark: a 100-node DES fleet
		// under one coordinator, 10 nodes partitioned mid-run. The record
		// pins the robustness invariants (no budget violation, no stranded
		// watts, convergence and recovery within epochs of the fault) and is
		// byte-deterministic — same params, same JSON.
		res, err := fleet.RunFleetSim(fleet.DefaultSimParams())
		if err != nil {
			return err
		}
		return writeTo(*out, "BENCH_fleet.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		})
	})

	run("decisions", func() error {
		return writeTo(*out, "decisions.txt", func(w io.Writer) error { return writeDecisions(w, *seed) })
	})

	if *fig == "all" && f10 != nil && f12 != nil && f13 != nil && f14 != nil {
		h := harness.ComputeHeadline(f10, f12, f13, f14)
		if err := writeTo(*out, "headline.txt", func(w io.Writer) error {
			return harness.WriteHeadline(w, h)
		}); err != nil {
			fatal(err)
		}
		_ = harness.WriteHeadline(os.Stdout, h)
		fmt.Println()
	}
	fmt.Printf("all experiments finished in %v; results in %s/\n",
		time.Since(start).Round(time.Millisecond), *out)
}

// writeDecisions renders an audited PowerChief run: the full decision
// timeline — every bottleneck identification with its Equation 1 inputs, the
// Equation 2/3 estimates behind each boost, recycle donor lists and
// withdraws — dumped as text. The companion of Figure 11's runtime traces,
// from the controller's point of view.
func writeDecisions(w io.Writer, seed int64) error {
	audit := telemetry.NewAuditLog(0)
	sc := harness.Scenario{
		Name:   "sirius-decisions",
		App:    mustApp("sirius"),
		Level:  cmp.MidLevel,
		Budget: 13.56,
		Policy: func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) },
		Source: func(capacity float64) workload.Source {
			return workload.Constant(workload.RateForUtilization(capacity, workload.High.Utilization()))
		},
		Duration: 900 * time.Second,
		Seed:     seed,
		Audit:    audit,
	}
	if _, err := harness.Run(sc); err != nil {
		return err
	}
	return telemetry.WriteDecisions(w, audit.Events())
}

func mustApp(name string) app.App {
	a, err := app.ByName(name)
	if err != nil {
		fatal(err)
	}
	return a
}

func workloadHigh() workload.Level { return workload.High }

func writeTo(dir, name string, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
