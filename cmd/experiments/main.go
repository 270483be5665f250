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
//	sweep.txt          Sirius latency vs power budget, baseline vs PowerChief
//	tail.txt           tail-latency distribution per policy (§10 future work)
//	ablations.txt      design-choice ablations (metric, withdraw, split-clone,
//	                   balance threshold, dispatcher)
//	decisions.txt      the Command Center's decision audit timeline, rendered
//	                   from a PowerChief run's recorded decision frames
//	                   (identify / boost / recycle / withdraw)
//	headline.txt       the abstract's aggregate numbers, paper vs measured
//	BENCH_fleet.json   fleet-federation robustness record: a 100-node DES
//	                   fleet, 10 nodes partitioned mid-run, budget invariant
//	                   and reclamation/recovery timings per epoch
//
// Each is a row of harness.Table; -fig names one row (the usage lists them)
// or all. The rows' scenarios are keyed, so each distinct run executes once
// however many rows read it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"powerchief/internal/harness"
)

func main() {
	var names []string
	for _, r := range harness.Table() {
		names = append(names, r.Name)
	}
	var (
		out  = flag.String("out", "results", "output directory")
		fig  = flag.String("fig", "all", "experiment to run: "+strings.Join(names, ", ")+" or all")
		seed = flag.Int64("seed", 7, "random seed shared by all experiments")
	)
	flag.Parse()
	start := time.Now()
	if err := writeFigures(*out, *fig, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("all experiments finished in %v; results in %s/\n",
		time.Since(start).Round(time.Millisecond), *out)
}

// writeFigures evaluates row fig of the table ("all" for every row) with
// seed into dir, logging the run count and the headline to log.
func writeFigures(dir, fig string, seed int64, log io.Writer) error {
	rows := harness.Table()
	if fig != "all" {
		r, ok := harness.LookupRow(fig)
		if !ok {
			return fmt.Errorf("unknown -fig %q", fig)
		}
		rows = []harness.Row{r}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	ev, err := harness.Evaluate(rows, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "ran %d distinct scenarios for %d requested in %v\n",
		ev.Distinct, ev.Requested, time.Since(t0).Round(time.Millisecond))
	file := func(name string, render func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		var w io.Writer = f
		if name == "headline.txt" {
			w = io.MultiWriter(f, log)
		}
		if err := render(w); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	for i, r := range rows {
		if err := r.Write(ev.Runs[i], file); err != nil {
			return fmt.Errorf("figure %s: %w", r.Name, err)
		}
	}
	return nil
}
