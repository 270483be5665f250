package core

import (
	"fmt"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/stage"
)

// desView adapts the discrete-event stage.System to the Command Center
// interfaces. *stage.Instance satisfies Instance directly; stages need a
// thin wrapper to narrow the clone/withdraw signatures.
type desView struct {
	sys    *stage.System
	stages []StageControl // a stage.System's stage set is fixed at construction
}

// NewDESView wraps a discrete-event system for the Command Center.
func NewDESView(sys *stage.System) System {
	if sys == nil {
		panic("core: NewDESView requires a system")
	}
	v := &desView{sys: sys}
	for _, st := range sys.Stages() {
		v.stages = append(v.stages, desStage{st: st})
	}
	return v
}

func (v *desView) Now() time.Duration         { return v.sys.Engine().Now() }
func (v *desView) PowerModel() cmp.PowerModel { return v.sys.Chip().Model() }
func (v *desView) Budget() cmp.Watts          { return v.sys.Chip().Budget() }
func (v *desView) Draw() cmp.Watts            { return v.sys.Chip().Draw() }
func (v *desView) Headroom() cmp.Watts        { return v.sys.Chip().Headroom() }
func (v *desView) FreeCores() int             { return v.sys.Chip().Free() }

// Quarantined implements System. The DES has no fault injection at the stage
// level; nothing is ever quarantined.
func (v *desView) Quarantined() []StageControl { return nil }

// Stages implements System.
func (v *desView) Stages() []StageControl { return v.stages }

// desStage adapts *stage.Stage to StageControl.
type desStage struct {
	st *stage.Stage
}

func (d desStage) Name() string                { return d.st.Name() }
func (d desStage) CanScale() bool              { return d.st.Kind() == stage.Pipeline }
func (d desStage) Profile() cmp.SpeedupProfile { return d.st.Profile() }

func (d desStage) Instances() []Instance {
	active := d.st.Active()
	out := make([]Instance, len(active))
	for i, in := range active {
		out[i] = in
	}
	return out
}

func (d desStage) Clone(bottleneck Instance) (Instance, error) {
	src, ok := bottleneck.(*stage.Instance)
	if !ok {
		return nil, fmt.Errorf("core: clone target %s is not a DES instance", bottleneck.Name())
	}
	return d.st.Clone(src)
}

func (d desStage) Withdraw(victim, target Instance) error {
	v, ok := victim.(*stage.Instance)
	if !ok {
		return fmt.Errorf("core: withdraw victim %s is not a DES instance", victim.Name())
	}
	var tgt *stage.Instance
	if target != nil {
		tgt, ok = target.(*stage.Instance)
		if !ok {
			return fmt.Errorf("core: withdraw target %s is not a DES instance", target.Name())
		}
	}
	return d.st.Withdraw(v, tgt)
}

// Interface conformance checks.
var (
	_ System   = (*desView)(nil)
	_ Instance = (*stage.Instance)(nil)
)
