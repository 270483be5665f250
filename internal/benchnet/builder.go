package benchnet

import (
	"fmt"
	"math/rand"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/dist"
	"powerchief/internal/live"
	"powerchief/internal/loadgen"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
)

// specLayout resolves the spec's application, per-stage instance counts and
// DVFS level.
func specLayout(spec RunSpec) (app.App, []int, cmp.Level, error) {
	a, err := app.ByName(spec.App)
	if err != nil {
		return app.App{}, nil, 0, err
	}
	instances := spec.Instances
	if len(instances) == 0 {
		instances = make([]int, len(a.Stages))
		for i := range instances {
			instances[i] = 1
		}
	}
	if len(instances) != len(a.Stages) {
		return app.App{}, nil, 0, fmt.Errorf("benchnet: spec names %d stages, application %s has %d",
			len(instances), a.Name, len(a.Stages))
	}
	for _, n := range instances {
		if n < 1 {
			return app.App{}, nil, 0, fmt.Errorf("benchnet: bad instance count %d", n)
		}
	}
	level := cmp.Level(spec.Level)
	if !level.Valid() {
		return app.App{}, nil, 0, fmt.Errorf("benchnet: invalid level %d (0..%d)", spec.Level, int(cmp.MaxLevel))
	}
	return a, instances, level, nil
}

func specBudget(spec RunSpec, model cmp.PowerModel, instances []int, level cmp.Level) cmp.Watts {
	if spec.BudgetW > 0 {
		return cmp.Watts(spec.BudgetW)
	}
	var b cmp.Watts
	for _, n := range instances {
		b += cmp.Watts(n) * model.Power(level)
	}
	return b
}

func specTimescale(spec RunSpec) float64 {
	if spec.TimeScale <= 0 {
		return 1
	}
	return spec.TimeScale
}

func specCores(spec RunSpec) int {
	if spec.Cores <= 0 {
		return 16
	}
	return spec.Cores
}

// BuildTarget assembles the engine a spec names — the same construction
// cmd/powerbench performs for its flags, factored here so the single-process
// driver and every remote agent build byte-identical targets from one spec.
// The second return is the work-draw sampler for loadgen.Options.DrawWork.
func BuildTarget(spec RunSpec) (loadgen.Target, func(*rand.Rand) [][]time.Duration, error) {
	a, instances, level, err := specLayout(spec)
	if err != nil {
		return nil, nil, err
	}
	branches := make([]int, len(instances))
	copy(branches, instances)
	draw := func(rng *rand.Rand) [][]time.Duration { return a.DrawWork(rng, branches) }

	switch spec.Target {
	case "live":
		model := cmp.DefaultModel()
		specs := make([]live.StageSpec, len(a.Stages))
		for i, sp := range a.Stages {
			specs[i] = live.StageSpec{
				Name:      sp.Name,
				Kind:      sp.Kind,
				Profile:   sp.Profile(),
				Instances: instances[i],
				Level:     level,
			}
		}
		cluster, err := live.NewCluster(live.Options{
			Cores:     specCores(spec),
			Model:     model,
			Budget:    specBudget(spec, model, instances, level),
			TimeScale: specTimescale(spec),
		}, specs)
		if err != nil {
			return nil, nil, err
		}
		return loadgen.NewLiveTarget(cluster), draw, nil

	case "des":
		eng := sim.NewEngine()
		model := cmp.DefaultModel()
		specs, err := a.Specs(instances, level)
		if err != nil {
			return nil, nil, err
		}
		chip := cmp.NewChip(specCores(spec), model, specBudget(spec, model, instances, level))
		sys, err := stage.NewSystem(eng, chip, specs)
		if err != nil {
			return nil, nil, err
		}
		return loadgen.NewDESTarget(sys), draw, nil

	case "dist":
		t, err := buildDistTarget(spec, a, instances, level)
		if err != nil {
			return nil, nil, err
		}
		return t, draw, nil

	default:
		return nil, nil, fmt.Errorf("benchnet: unknown target %q (want live, des or dist)", spec.Target)
	}
}

// buildDistTarget connects to the spec's stage-service addresses, or
// self-hosts one service per application stage on loopback TCP. In a
// coordinated run the coordinator hosts the services once
// (HostStageServices) and ships the addresses, so N agents drive one shared
// deployment — the system under test — instead of N private copies.
func buildDistTarget(spec RunSpec, a app.App, instances []int, level cmp.Level) (loadgen.Target, error) {
	var owned []*dist.StageService
	addrs := spec.Addrs
	if len(addrs) == 0 {
		var err error
		if addrs, owned, err = hostServices(a, instances, level, specCores(spec), specTimescale(spec)); err != nil {
			return nil, err
		}
	}
	model := cmp.DefaultModel()
	center, err := dist.NewCenterOptions(specBudget(spec, model, instances, level), 25*time.Second, addrs,
		dist.CenterOptions{IngestBatch: spec.IngestBatch, IngestInterval: spec.IngestInterval})
	if err != nil {
		closeAll(owned)
		return nil, err
	}
	t := loadgen.NewDistTarget(center)
	t.OwnsCenter = true
	return &distDeployment{DistTarget: t, services: owned}, nil
}

// HostStageServices brings up the spec's stage services on loopback TCP and
// returns their addresses plus a teardown. The coordinator calls this once
// before fanning a dist spec out, so every agent's Center drives the same
// service processes.
func HostStageServices(spec RunSpec) ([]string, func(), error) {
	a, instances, level, err := specLayout(spec)
	if err != nil {
		return nil, nil, err
	}
	addrs, owned, err := hostServices(a, instances, level, specCores(spec), specTimescale(spec))
	if err != nil {
		return nil, nil, err
	}
	return addrs, func() { closeAll(owned) }, nil
}

func hostServices(a app.App, instances []int, level cmp.Level, cores int, timescale float64) ([]string, []*dist.StageService, error) {
	var addrs []string
	var owned []*dist.StageService
	for i, sp := range a.Stages {
		svc, err := dist.NewStageService(dist.StageOptions{
			Name:      sp.Name,
			Kind:      sp.Kind,
			MemBound:  sp.MemBound,
			Instances: instances[i],
			Level:     level,
			Cores:     cores,
			TimeScale: timescale,
		})
		if err != nil {
			closeAll(owned)
			return nil, nil, err
		}
		owned = append(owned, svc)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			closeAll(owned)
			return nil, nil, err
		}
		addrs = append(addrs, addr)
	}
	return addrs, owned, nil
}

// distDeployment tears the self-hosted stage services down with the target.
type distDeployment struct {
	*loadgen.DistTarget
	services []*dist.StageService
}

func (d *distDeployment) Close() error {
	err := d.DistTarget.Close()
	closeAll(d.services)
	return err
}

func closeAll(svcs []*dist.StageService) {
	for _, svc := range svcs {
		svc.Close()
	}
}
