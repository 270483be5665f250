package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/config"
	"powerchief/internal/core"
	"powerchief/internal/harness"
	"powerchief/internal/replay"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

// runScenario runs one scenario of the reproduction on the deterministic
// discrete-event engine and prints its metrics:
//
//	powerchief run -app websearch -policy saver -qos 250ms -instances 10,1 -level max
func runScenario(_ context.Context, args []string, stdout io.Writer) error {
	fs := newFlagSet("run")
	var (
		appName    = fs.String("app", "sirius", "application: sirius, nlp, websearch")
		policy     = fs.String("policy", "powerchief", "policy: "+strings.Join(replay.PolicyNames(), ", "))
		load       = fs.String("load", "medium", "load level: low, medium, high")
		budget     = fs.Float64("budget", 13.56, "power budget in watts (0 = derive from initial configuration)")
		duration   = fs.Duration("duration", 900*time.Second, "load generation horizon (virtual time)")
		interval   = fs.Duration("interval", 25*time.Second, "control adjust interval")
		qos        = fs.Duration("qos", 2*time.Second, "QoS target for pegasus/saver policies")
		seed       = fs.Int64("seed", 1, "random seed")
		levelStr   = fs.String("level", "mid", "initial frequency: min, mid, max, or GHz value like 1.8")
		instances  = fs.String("instances", "", "per-stage instance counts, e.g. 4,2,5 (default: 1 per stage)")
		tracePath  = fs.String("trace", "", "write the run's time series as CSV to this file")
		decisions  = fs.String("decisions", "", "write the controller's decision audit timeline to this file (\"-\" for stdout)")
		configPath = fs.String("config", "", "load the experiment from a JSON file (overrides other flags)")
		saveConfig = fs.String("save-config", "", "write the experiment implied by the flags as JSON and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *configPath != "" {
		exp, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		sc, err := harness.FromConfig(exp)
		if err != nil {
			return err
		}
		res, err := harness.Run(sc)
		if err != nil {
			return err
		}
		return harness.WriteResult(stdout, res)
	}
	if *saveConfig != "" {
		exp := config.MitigationSetup(*appName, *policy, *load, *seed)
		exp.BudgetWatts = *budget
		exp.Duration = config.Duration(*duration)
		exp.AdjustInterval = config.Duration(*interval)
		exp.QoS = config.Duration(*qos)
		if _, err := harness.FromConfig(exp); err != nil {
			return err
		}
		if err := exp.Save(*saveConfig); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "experiment written to %s\n", *saveConfig)
		return nil
	}

	a, err := app.ByName(*appName)
	if err != nil {
		return err
	}
	lvl, err := parseLevel(*levelStr)
	if err != nil {
		return err
	}
	loadLevel, err := workload.ParseLevel(*load)
	if err != nil {
		return err
	}
	var counts []int
	if *instances != "" {
		for _, part := range strings.Split(*instances, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -instances entry %q", part)
			}
			counts = append(counts, n)
		}
	}
	mk, err := replay.PolicyFactory(*policy, *qos, core.DefaultConfig())
	if err != nil {
		return err
	}

	res, err := harness.Run(harness.Scenario{
		Name: fmt.Sprintf("%s-%s-%s", *appName, *policy, *load), App: a, Instances: counts, Level: lvl,
		Budget: cmp.Watts(*budget), Policy: func() core.Policy { return mk() }, AdjustInterval: *interval,
		Source: harness.ConstantLoad(loadLevel), Duration: *duration, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if err := harness.WriteResult(stdout, res); err != nil {
		return err
	}
	if *decisions != "" {
		var events []telemetry.Event
		if res.Decisions != nil { // a policy that records its decisions
			events = res.Decisions.Trace().Events()
		}
		render := func(w io.Writer) error { return telemetry.WriteDecisions(w, events) }
		if *decisions == "-" {
			err = render(stdout)
		} else if err = writeFile(*decisions, render); err == nil {
			fmt.Fprintf(stdout, "decision timeline written to %s (%d events)\n", *decisions, len(events))
		}
		if err != nil {
			return err
		}
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, func(w io.Writer) error { return harness.WriteRuntimeTrace(w, res.Scenario, res) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}
	return nil
}

// writeFile renders into a new file at path.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
