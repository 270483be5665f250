package harness

import (
	"fmt"
	"io"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/replay"
	"powerchief/internal/stage"
	"powerchief/internal/workload"
)

// The evaluation table. Every result file of the paper's evaluation (§8) is
// a Row: the scenarios it needs, named by Key, and a writer from their
// results to its bytes. Evaluate runs the distinct keys of a set of rows
// once, through one RunAll, so a run several rows share — Figure 4's are
// Figure 10's; the tail analysis, the decision timeline and the ablations
// reuse Sirius high-load runs — costs one run.

// maxStages bounds a Key's per-stage arrays; every registered application
// fits.
const maxStages = 4

// LoadKind selects a Key's arrival process.
type LoadKind uint8

const (
	// LoadConstant arrives at Util of the reference capacity.
	LoadConstant LoadKind = iota
	// LoadPhased is the Figure 11 trace around Util.
	LoadPhased
	// LoadBurst is the Figures 13/14 trace: Util with nine bursts of 2.2×
	// (at most 0.95 of capacity) a quarter of a ninth of the horizon long.
	LoadBurst
)

// Key names one run by everything that shapes it. Equal keys run
// identically, so a table runs each distinct key once; normalized spells
// every default one way first. A run's name is not part of its key: a row
// labels the runs it renders.
type Key struct {
	App       string               // app.ByName
	Instances [maxStages]int       // initial instances per stage
	Levels    [maxStages]cmp.Level // initial frequency level per stage
	Budget    cmp.Watts            // zero: the initial configuration's draw
	Cores     int                  // zero: 16

	Policy string        // replay.PolicyFactory name; "" is baseline
	Config core.Config   // the policy's control parameters
	QoS    time.Duration // the QoS policies' latency target

	Load LoadKind
	Util float64 // utilization of the reference capacity

	Dispatcher     string        // dispatchers name; "" is join-shortest-queue
	AdjustInterval time.Duration // zero: 25 s
	StatsWindow    time.Duration // zero: the adjust interval

	// RefInstances/RefLevel anchor the load; zero is the key's own
	// (uniform) initial configuration.
	RefInstances [maxStages]int
	RefLevel     cmp.Level

	Horizon time.Duration
	Seed    int64
}

// dispatchers resolves Key.Dispatcher; nil keeps the stage default.
var dispatchers = map[string]func() stage.Dispatcher{
	"join-shortest-queue":  nil,
	"round-robin":          func() stage.Dispatcher { return &stage.RoundRobin{} },
	"least-expected-delay": func() stage.Dispatcher { return stage.LeastExpectedDelay{} },
}

// normalized applies the defaults Run would, so keys that run identically
// compare equal.
func (k Key) normalized() Key {
	if k.Policy == "" {
		k.Policy = "baseline"
	}
	if k.Dispatcher == "" {
		k.Dispatcher = "join-shortest-queue"
	}
	if k.Cores == 0 {
		k.Cores = 16
	}
	if k.AdjustInterval == 0 {
		k.AdjustInterval = 25 * time.Second
	}
	if k.StatsWindow == 0 {
		k.StatsWindow = k.AdjustInterval
	}
	if k.RefInstances == ([maxStages]int{}) {
		k.RefInstances, k.RefLevel = k.Instances, k.Levels[0]
	}
	return k
}

// Scenario builds the run the key names.
func (k Key) Scenario() (Scenario, error) {
	k = k.normalized()
	a, err := app.ByName(k.App)
	if err != nil {
		return Scenario{}, err
	}
	mk, err := replay.PolicyFactory(k.Policy, k.QoS, k.Config)
	if err != nil {
		return Scenario{}, err
	}
	dispatcher, ok := dispatchers[k.Dispatcher]
	if !ok {
		return Scenario{}, fmt.Errorf("harness: unknown dispatcher %q", k.Dispatcher)
	}
	n := len(a.Stages)
	sc := Scenario{
		Name:           fmt.Sprintf("%s-%s", k.App, k.Policy),
		App:            a,
		Instances:      k.Instances[:n],
		Level:          k.Levels[0],
		Budget:         k.Budget,
		Cores:          k.Cores,
		Policy:         func() core.Policy { return mk() },
		AdjustInterval: k.AdjustInterval,
		StatsWindow:    k.StatsWindow,
		Source:         k.source(),
		RefInstances:   k.RefInstances[:n],
		RefLevel:       k.RefLevel,
		Duration:       k.Horizon,
		Seed:           k.Seed,
		Dispatcher:     dispatcher,
		StageLevels:    k.Levels[:n],
	}
	return sc, nil
}

// source builds the key's arrival process from the reference capacity.
func (k Key) source() func(float64) workload.Source {
	return func(capacity float64) workload.Source {
		rate := workload.RateForUtilization(capacity, k.Util)
		switch k.Load {
		case LoadPhased:
			return workload.Figure11Trace(rate)
		case LoadBurst:
			burst := min(rate*2.2, capacity*0.95)
			period := k.Horizon / 9
			tr, err := workload.BurstTrace(rate, burst, period, period/4, k.Horizon)
			if err != nil {
				panic(err)
			}
			return tr
		default:
			return workload.Constant(rate)
		}
	}
}

// ConstantLoad builds a Source factory pinning utilization of the reference
// capacity.
func ConstantLoad(level workload.Level) func(float64) workload.Source {
	return func(capacity float64) workload.Source {
		return workload.Constant(workload.RateForUtilization(capacity, level.Utilization()))
	}
}

// table2 is the Table 2 setup of application a at load under policy: one
// instance per stage at 1.8 GHz, the 13.56 W budget, a 25 s adjust interval
// and a 900 s horizon.
func table2(a app.App, load workload.Level, policy string, seed int64) Key {
	k := Key{
		App: a.Name, Budget: MitigationBudget, Policy: policy, Config: core.DefaultConfig(),
		Util: load.Utilization(), AdjustInterval: 25 * time.Second, Horizon: 900 * time.Second, Seed: seed,
	}
	for i := range a.Stages {
		k.Instances[i], k.Levels[i] = 1, cmp.MidLevel
	}
	return k
}

// FileFunc writes one result file, its bytes rendered by render.
type FileFunc func(name string, render func(io.Writer) error) error

// Row is one result of the evaluation, named by its -fig value: the
// scenarios it needs at a seed, and the files their results (in key order)
// render to. A view names no keys: Of lists the rows whose runs, in order,
// it reads. A row with neither reads no run.
type Row struct {
	Name  string
	Keys  func(seed int64) []Key
	Of    []string
	Write func(runs []*Result, file FileFunc) error
}

// Evaluation is what Evaluate returns: each row's runs, in row order; the
// number of keys the rows request, a view's rows counted once; and the
// number of distinct scenarios those keys ran.
type Evaluation struct {
	Runs                [][]*Result
	Requested, Distinct int
}

// runScenario is RunAll's run of one scenario; tests count runs through it.
var runScenario = Run

// Evaluate runs the rows at seed: every distinct key once, all of them
// through one RunAll.
func Evaluate(rows []Row, seed int64) (*Evaluation, error) {
	ev := &Evaluation{Runs: make([][]*Result, len(rows))}
	index := map[Key]int{}
	var scs []Scenario
	requested := map[string]bool{}
	runsOf := make([][]int, len(rows))
	for i, r := range rows {
		sources := []Row{r}
		if r.Of != nil {
			sources = nil
			for _, name := range r.Of {
				src, ok := LookupRow(name)
				if !ok {
					return nil, fmt.Errorf("harness: row %s views unknown row %q", r.Name, name)
				}
				sources = append(sources, src)
			}
		}
		for _, src := range sources {
			if src.Keys == nil {
				continue
			}
			keys := src.Keys(seed)
			if !requested[src.Name] {
				requested[src.Name] = true
				ev.Requested += len(keys)
			}
			for _, k := range keys {
				k = k.normalized()
				j, ok := index[k]
				if !ok {
					sc, err := k.Scenario()
					if err != nil {
						return nil, fmt.Errorf("harness: row %s: %w", src.Name, err)
					}
					j = len(scs)
					index[k] = j
					scs = append(scs, sc)
				}
				runsOf[i] = append(runsOf[i], j)
			}
		}
	}
	ev.Distinct = len(scs)
	results, err := RunAll(scs)
	if err != nil {
		return nil, err
	}
	for i, runs := range runsOf {
		for _, j := range runs {
			ev.Runs[i] = append(ev.Runs[i], results[j])
		}
	}
	return ev, nil
}

// LookupRow returns the table's row named name.
func LookupRow(name string) (Row, bool) {
	for _, r := range Table() {
		if r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}
