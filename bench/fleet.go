package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/fault"
	"powerchief/internal/fleet"
	"powerchief/internal/sim"
)

// Fleet workload shape. Every cutEvery epochs a different block of cutBlock
// nodes is cut for cutFor epochs, alternating restart / no-restart, so
// quarantine, fencing (stale epoch after a partition, epoch 0 after a
// restart) and floor re-admission all fire throughout the run.
const (
	fleetBudget   = cmp.Watts(10000)
	fleetFloor    = cmp.Watts(5)
	fleetInterval = time.Second
	cutEvery      = 50
	cutBlock      = 10
	cutFor        = 20
	strandedEvery = 5
	// fleetUnit is the fixed-work unit of fleet-1k: epochs per unit.
	fleetUnit = 2000
)

// countingTransport counts the coordinator's exchanges with one node. Only
// the traced pass uses it; every 1000th report is also recorded as a span.
type countingTransport struct {
	fleet.Transport
	tr      *tracer
	reports *atomic.Int64
	grants  *atomic.Int64
}

func (c countingTransport) Report() (fleet.Report, error) {
	n := c.reports.Add(1)
	if n%sampleEvery == 0 {
		s := c.tr.begin("fleet.report", c.tr.currentScope(), uint64(n))
		rep, err := c.Transport.Report()
		c.tr.end(s)
		return rep, err
	}
	return c.Transport.Report()
}

func (c countingTransport) Grant(g fleet.Grant) error {
	c.grants.Add(1)
	return c.Transport.Grant(g)
}

// fleetEnv is one assembled fleet: N SimNodes and a coordinator on a
// SimClock-driven control loop, advanced one epoch at a time by the driver.
type fleetEnv struct {
	eng   *sim.Engine
	nodes []*fleet.SimNode
	coord *fleet.Coordinator
	loop  *controlplane.Loop
	ticks tickLog
	tr    *tracer
	epoch int
}

// setupFleet builds the fleet. Node loads are drawn from the run seed (the
// benchmark's input); everything after that is a function of virtual time.
func setupFleet(nodes int, budget cmp.Watts, seed int64, tr *tracer) (*fleetEnv, error) {
	e := &fleetEnv{eng: sim.NewEngine(), tr: tr}
	transports := make([]fleet.Transport, nodes)
	for i := 0; i < nodes; i++ {
		// Loads of 1.0 .. 2.5 in steps of 0.25, assigned by the seed, so the
		// metric-weighted redistribution has structure to find.
		load := 1 + float64(uint64(deriveSeed(seed, "fleet-load", i))%7)*0.25
		n := fleet.NewSimNode(fmt.Sprintf("node-%04d", i), e.eng.Now, load)
		e.nodes = append(e.nodes, n)
		transports[i] = n
		if tr != nil {
			transports[i] = countingTransport{Transport: n, tr: tr, reports: tr.counter("fleet.report"), grants: tr.counter("fleet.grant")}
		}
	}
	coord, err := fleet.NewCoordinator(fleet.Options{Budget: budget, Floor: fleetFloor, Now: e.eng.Now}, transports...)
	if err != nil {
		return nil, err
	}
	e.coord = coord
	adj := &timedAdjuster{inner: coord, ticks: &e.ticks, tr: tr}
	e.loop, err = controlplane.Start(controlplane.SimClock(e.eng), adj, controlplane.Options{
		Policy:   fleet.NewRebalance(),
		Interval: fleetInterval,
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

func (e *fleetEnv) close() error {
	e.loop.Stop()
	return nil
}

// step scripts the partitions due at this epoch, advances the engine one
// interval and returns the host time the epoch took plus the invariant
// violations it observed (Σ granted over budget, every epoch; watts stranded
// on a quarantined node after the adjust, every fifth).
func (e *fleetEnv) step() (time.Duration, int) {
	if e.epoch%cutEvery == 0 && len(e.nodes) >= cutBlock {
		cut := e.epoch / cutEvery
		blocks := len(e.nodes) / cutBlock
		first := (cut % blocks) * cutBlock
		from := e.eng.Now() + fleetInterval/2
		for _, n := range e.nodes[first : first+cutBlock] {
			n.FailBetween(from, from+cutFor*fleetInterval, cut%2 == 0)
		}
	}
	e.epoch++
	span := e.tr.begin("fleet.epoch", noSpan, uint64(e.epoch))
	prev := e.tr.setScope(span)
	start := time.Now()
	e.eng.RunUntil(time.Duration(e.epoch) * fleetInterval)
	took := time.Since(start)
	e.tr.setScope(prev)
	e.tr.end(span)

	bad := 0
	if e.coord.Draw() > e.coord.Budget()+1e-9 {
		bad++
	}
	// The stranded-watts sweep builds two 1000-entry maps; every fifth epoch
	// keeps it a small share of the run (a quarantine lasts ~cutFor epochs).
	if e.epoch%strandedEvery == 0 {
		granted := e.coord.Granted()
		for name, h := range e.coord.Healths() {
			if h != fault.Healthy && h != fault.Suspect && granted[name] > 1e-9 {
				bad++
				break
			}
		}
	}
	return took, bad
}

// record folds the fleet's exact outputs into the digest.
func (e *fleetEnv) record(dg *digest) {
	q, r, f := e.coord.Counts()
	dg.add("epoch=%d quarantines=%d readmissions=%d fenced=%d granted=%.6f fence_epoch=%d",
		e.epoch, q, r, f, float64(e.coord.Draw()), e.coord.Epoch())
}

// fleetPass is the outcome of a run of whole units.
type fleetPass struct {
	epochUS     [][]float64 // host microseconds per epoch, per unit
	unitRates   []float64
	unitDigests []string
	busy        time.Duration
	epochs      int
}

// runFleetUnits advances the fleet by whole units until `units` are done
// (units > 0) or the time box is spent.
func runFleetUnits(e *fleetEnv, unitEpochs int, res *RunResult, box time.Duration, units int) *fleetPass {
	pass := &fleetPass{}
	dg := newDigest()
	settle()
	for unit := 0; ; unit++ {
		if units > 0 && unit >= units {
			break
		}
		if units == 0 && unit > 0 && pass.busy >= box {
			break
		}
		var unitBusy time.Duration
		epochs := make([]float64, 0, unitEpochs)
		for i := 0; i < unitEpochs; i++ {
			took, bad := e.step()
			unitBusy += took
			epochs = append(epochs, us(took))
			res.Attempted++
			res.Failed += int64(bad)
			if bad > 0 && len(res.Problems) < 8 {
				res.Problems = append(res.Problems, fmt.Sprintf("epoch %d: budget or stranded-watts invariant broken", e.epoch))
			}
		}
		e.record(dg)
		pass.epochUS = append(pass.epochUS, epochs)
		pass.busy += unitBusy
		pass.epochs += unitEpochs
		pass.unitRates = append(pass.unitRates, float64(unitEpochs)/unitBusy.Seconds())
		pass.unitDigests = append(pass.unitDigests, dg.sum())
	}
	if errs, last := e.loop.Errors(); errs > 0 {
		res.check(false, "%d coordinator adjusts failed, last: %v", errs, last)
	}
	return pass
}

func fleetSize(cfg runConfig) (nodes, unitEpochs int, budget cmp.Watts) {
	nodes = int(1000 * cfg.scale)
	if nodes < 2*cutBlock {
		nodes = 2 * cutBlock
	}
	unitEpochs = int(fleetUnit * cfg.scale)
	if unitEpochs < 2*cutEvery {
		unitEpochs = 2 * cutEvery
	}
	return nodes, unitEpochs, fleetBudget * cmp.Watts(nodes) / 1000
}

// runFleet runs fleet-1k with tracing off.
func runFleet(cfg runConfig, e *fleetEnv, res *RunResult) error {
	_, unitEpochs, _ := fleetSize(cfg)
	pass := runFleetUnits(e, unitEpochs, res, cfg.box(), 0)
	res.measured()
	res.Units = len(pass.unitRates)
	res.Digest = pass.unitDigests[len(pass.unitDigests)-1]
	checkGolden(cfg, res, pass.unitDigests)
	res.Metrics.set("ops_per_s", median(pass.unitRates), len(pass.unitRates))
	lat, n := unitQuantiles(pass.epochUS, 0.50, 0.99)
	res.Metrics.set("lat_us_p50", lat[0], n)
	res.Detail["lat_us_p99"] = lat[1]
	res.Detail["epochs"] = float64(pass.epochs)
	res.Detail["adjust_us_p50"] = quantile(durationsUS(e.ticks.snapshot()), 0.5)
	q, r, f := e.coord.Counts()
	res.Detail["quarantines"], res.Detail["readmissions"], res.Detail["fenced"] = float64(q), float64(r), float64(f)
	return nil
}

// traceFleet is the traced pass of fleet-1k: one fleet untraced, a second
// identical fleet with the counting transport and spans; their digests must
// agree.
func traceFleet(cfg runConfig, res *RunResult, tr *tracer) (*tracedPass, error) {
	nodes, unitEpochs, budget := fleetSize(cfg)
	plainEnv, err := setupFleet(nodes, budget, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	plain := runFleetUnits(plainEnv, unitEpochs, res, cfg.box()/4, 0)
	plainEnv.close()

	tracedEnv, err := setupFleet(nodes, budget, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	traced := runFleetUnits(tracedEnv, unitEpochs, res, 0, len(plain.unitRates))
	tracedEnv.close()

	res.Units = len(traced.unitRates)
	res.Digest = traced.unitDigests[len(traced.unitDigests)-1]
	for i := range plain.unitDigests {
		res.check(plain.unitDigests[i] == traced.unitDigests[i],
			"unit %d: traced digest %s differs from untraced %s", i, traced.unitDigests[i], plain.unitDigests[i])
	}
	res.Detail["reports_per_epoch"] = float64(tr.total("fleet.report")) / float64(traced.epochs)
	res.Detail["grants_per_epoch"] = float64(tr.total("fleet.grant")) / float64(traced.epochs)
	p99, n := unitQuantiles(plain.epochUS, 0.99)
	return &tracedPass{
		p99US:      p99[0],
		p99N:       n,
		ticks:      tracedEnv.ticks.snapshot(),
		busy:       traced.busy,
		plainRate:  float64(plain.epochs) / plain.busy.Seconds(),
		tracedRate: float64(traced.epochs) / traced.busy.Seconds(),
	}, nil
}
