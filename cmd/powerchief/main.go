// Command powerchief runs one scenario of the reproduction on the
// deterministic discrete-event engine and prints its metrics.
//
// Examples:
//
//	powerchief -app sirius -policy powerchief -load high
//	powerchief -app nlp -policy inst-boost -load medium -duration 900s
//	powerchief -app websearch -policy saver -qos 250ms -instances 10,1 -level max
//	powerchief -app sirius -policy baseline -load high -trace trace.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"powerchief"
	"powerchief/internal/cmp"
	"powerchief/internal/config"
	"powerchief/internal/harness"
	"powerchief/internal/replay"
	"powerchief/internal/telemetry"
	"powerchief/internal/workload"
)

func main() {
	var (
		appName    = flag.String("app", "sirius", "application: sirius, nlp, websearch")
		policy     = flag.String("policy", "powerchief", "policy: "+strings.Join(replay.PolicyNames(), ", "))
		load       = flag.String("load", "medium", "load level: low, medium, high")
		budget     = flag.Float64("budget", 13.56, "power budget in watts (0 = derive from initial configuration)")
		duration   = flag.Duration("duration", 900*time.Second, "load generation horizon (virtual time)")
		interval   = flag.Duration("interval", 25*time.Second, "control adjust interval")
		qos        = flag.Duration("qos", 2*time.Second, "QoS target for pegasus/saver policies")
		seed       = flag.Int64("seed", 1, "random seed")
		levelStr   = flag.String("level", "mid", "initial frequency: min, mid, max, or GHz value like 1.8")
		instances  = flag.String("instances", "", "per-stage instance counts, e.g. 4,2,5 (default: 1 per stage)")
		tracePath  = flag.String("trace", "", "write the run's time series as CSV to this file")
		decisions  = flag.String("decisions", "", "write the controller's decision audit timeline to this file (\"-\" for stdout)")
		configPath = flag.String("config", "", "load the experiment from a JSON file (overrides other flags)")
		saveConfig = flag.String("save-config", "", "write the experiment implied by the flags as JSON and exit")
	)
	flag.Parse()

	if *configPath != "" {
		exp, err := config.Load(*configPath)
		if err != nil {
			fatal(err)
		}
		sc, err := harness.FromConfig(exp)
		if err != nil {
			fatal(err)
		}
		res, err := harness.Run(sc)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteResult(os.Stdout, res); err != nil {
			fatal(err)
		}
		return
	}
	if *saveConfig != "" {
		exp := config.MitigationSetup(*appName, *policy, *load, *seed)
		exp.BudgetWatts = *budget
		exp.Duration = config.Duration(*duration)
		exp.AdjustInterval = config.Duration(*interval)
		exp.QoS = config.Duration(*qos)
		if _, err := harness.FromConfig(exp); err != nil {
			fatal(err)
		}
		if err := exp.Save(*saveConfig); err != nil {
			fatal(err)
		}
		fmt.Printf("experiment written to %s\n", *saveConfig)
		return
	}

	a, err := powerchief.AppByName(*appName)
	if err != nil {
		fatal(err)
	}
	lvl, err := parseLevel(*levelStr)
	if err != nil {
		fatal(err)
	}
	loadLevel, err := workload.ParseLevel(*load)
	if err != nil {
		fatal(err)
	}

	var counts []int
	if *instances != "" {
		for _, part := range strings.Split(*instances, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fatal(fmt.Errorf("bad -instances entry %q", part))
			}
			counts = append(counts, n)
		}
	}

	mk, err := powerchief.PolicyByName(*policy, *qos)
	if err != nil {
		fatal(err)
	}

	sc := powerchief.Scenario{
		Name:           fmt.Sprintf("%s-%s-%s", *appName, *policy, *load),
		App:            a,
		Instances:      counts,
		Level:          lvl,
		Budget:         powerchief.Watts(*budget),
		Policy:         mk,
		AdjustInterval: *interval,
		Source:         powerchief.ConstantLoad(loadLevel),
		Duration:       *duration,
		Seed:           *seed,
	}
	res, err := powerchief.Run(sc)
	if err != nil {
		fatal(err)
	}
	if err := powerchief.WriteResult(os.Stdout, res); err != nil {
		fatal(err)
	}
	if *decisions != "" {
		var events []telemetry.Event
		if res.Decisions != nil { // a policy that records its decisions
			events = res.Decisions.Trace().Events()
		}
		out := os.Stdout
		if *decisions != "-" {
			f, err := os.Create(*decisions)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := powerchief.WriteDecisions(out, events); err != nil {
			fatal(err)
		}
		if *decisions != "-" {
			fmt.Printf("decision timeline written to %s (%d events)\n", *decisions, len(events))
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := harness.WriteRuntimeTrace(f, res); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
}

func parseLevel(s string) (cmp.Level, error) {
	switch s {
	case "min":
		return 0, nil
	case "mid":
		return cmp.MidLevel, nil
	case "max":
		return cmp.MaxLevel, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad -level %q (want min, mid, max or GHz)", s)
	}
	return cmp.LevelOf(cmp.GHz(f)), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "powerchief:", err)
	os.Exit(1)
}
