package core

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
)

// In-memory fakes implementing the Command Center interfaces, so the
// decision components can be unit-tested without a simulation engine.

type fakeInstance struct {
	name     string
	stage    string
	queueLen int
	level    cmp.Level
	util     float64
	sys      *fakeSystem

	queueReads    int // QueueLen calls: every ranking reads each instance once
	setLevelCalls int
	epochResets   int
	setLevelErr   error // injected actuation failure (a dead RPC peer)
}

func (f *fakeInstance) Name() string      { return f.name }
func (f *fakeInstance) StageName() string { return f.stage }
func (f *fakeInstance) Level() cmp.Level  { return f.level }

func (f *fakeInstance) QueueLen() int {
	f.queueReads++
	return f.queueLen
}

func (f *fakeInstance) SetLevel(l cmp.Level) error {
	if f.setLevelErr != nil {
		return f.setLevelErr
	}
	delta := f.sys.model.Power(l) - f.sys.model.Power(f.level)
	if f.sys.draw+delta > f.sys.budget+1e-9 {
		return cmp.ErrBudgetExceeded
	}
	f.sys.actuated = append(f.sys.actuated, fmt.Sprintf("%s %d→%d", f.name, int(f.level), int(l)))
	f.sys.draw += delta
	f.level = l
	f.setLevelCalls++
	return nil
}

func (f *fakeInstance) Utilization() float64   { return f.util }
func (f *fakeInstance) ResetUtilizationEpoch() { f.epochResets++ }

type fakeStage struct {
	name     string
	scalable bool
	profile  cmp.SpeedupProfile
	ins      []*fakeInstance
	sys      *fakeSystem

	cloneErr    error
	withdrawErr error
	cloned      []string
	withdrawn   []string
}

func (f *fakeStage) Name() string                { return f.name }
func (f *fakeStage) CanScale() bool              { return f.scalable }
func (f *fakeStage) Profile() cmp.SpeedupProfile { return f.profile }

func (f *fakeStage) Instances() []Instance {
	out := make([]Instance, len(f.ins))
	for i, in := range f.ins {
		out[i] = in
	}
	return out
}

func (f *fakeStage) Clone(bn Instance) (Instance, error) {
	if f.cloneErr != nil {
		return nil, f.cloneErr
	}
	src := bn.(*fakeInstance)
	if f.sys.freeCores <= 0 {
		return nil, cmp.ErrNoFreeCore
	}
	p := f.sys.model.Power(src.level)
	if f.sys.draw+p > f.sys.budget+1e-9 {
		return nil, cmp.ErrBudgetExceeded
	}
	f.sys.draw += p
	f.sys.freeCores--
	clone := &fakeInstance{
		name:     fmt.Sprintf("%s_%d", f.name, len(f.ins)+1),
		stage:    f.name,
		level:    src.level,
		queueLen: src.queueLen / 2,
		sys:      f.sys,
	}
	src.queueLen -= clone.queueLen
	f.ins = append(f.ins, clone)
	f.cloned = append(f.cloned, clone.name)
	return clone, nil
}

func (f *fakeStage) Withdraw(victim, target Instance) error {
	if f.withdrawErr != nil {
		return f.withdrawErr
	}
	v := victim.(*fakeInstance)
	for i, in := range f.ins {
		if in == v {
			f.ins = append(f.ins[:i], f.ins[i+1:]...)
			f.sys.draw -= f.sys.model.Power(v.level)
			f.sys.freeCores++
			f.withdrawn = append(f.withdrawn, v.name)
			return nil
		}
	}
	return fmt.Errorf("fake: withdraw of unknown instance %s", victim.Name())
}

type fakeSystem struct {
	now         time.Duration
	stages      []*fakeStage
	quarantined []*fakeStage
	model       cmp.PowerModel
	budget      cmp.Watts
	draw        cmp.Watts
	freeCores   int
	actuated    []string // every successful DVFS transition, in order
}

func (f *fakeSystem) Now() time.Duration         { return f.now }
func (f *fakeSystem) PowerModel() cmp.PowerModel { return f.model }
func (f *fakeSystem) Budget() cmp.Watts          { return f.budget }
func (f *fakeSystem) Draw() cmp.Watts            { return f.draw }
func (f *fakeSystem) Headroom() cmp.Watts        { return f.budget - f.draw }
func (f *fakeSystem) FreeCores() int             { return f.freeCores }
func (f *fakeSystem) Quarantined() []StageControl {
	out := make([]StageControl, len(f.quarantined))
	for i, st := range f.quarantined {
		out[i] = st
	}
	return out
}

func (f *fakeSystem) Stages() []StageControl {
	out := make([]StageControl, len(f.stages))
	for i, st := range f.stages {
		out[i] = st
	}
	return out
}

// newFakeSystem builds a system with one pipeline stage per spec string of
// the form name:instances, all at the given level.
func newFakeSystem(budget cmp.Watts, freeCores int, level cmp.Level, stageNames ...string) *fakeSystem {
	sys := &fakeSystem{model: cmp.DefaultModel(), budget: budget, freeCores: freeCores}
	for _, name := range stageNames {
		st := &fakeStage{name: name, scalable: true, profile: cmp.NewRooflineProfile(0.2), sys: sys}
		in := &fakeInstance{name: name + "_1", stage: name, level: level, sys: sys}
		sys.draw += sys.model.Power(level)
		st.ins = append(st.ins, in)
		sys.stages = append(sys.stages, st)
	}
	return sys
}

func (f *fakeSystem) inst(name string) *fakeInstance {
	for _, st := range f.stages {
		for _, in := range st.ins {
			if in.name == name {
				return in
			}
		}
	}
	panic("fake: unknown instance " + name)
}

func (f *fakeSystem) stage(name string) *fakeStage {
	for _, st := range f.stages {
		if st.name == name {
			return st
		}
	}
	panic("fake: unknown stage " + name)
}

// aggWith builds an aggregator whose clock follows the fake system, with
// fixed per-instance stats injected through synthetic records.
func aggWith(sys *fakeSystem, window time.Duration) *Aggregator {
	return NewAggregator(window, func() time.Duration { return sys.now })
}
