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
	stages []StageControl  // a stage.System's stage set is fixed at construction
	power  *cmp.TableModel // tabulated on the first capture: a chip's model is fixed
}

// NewDESView wraps a discrete-event system for the Command Center.
func NewDESView(sys *stage.System) System {
	if sys == nil {
		panic("core: NewDESView requires a system")
	}
	v := &desView{sys: sys}
	for _, st := range sys.Stages() {
		v.stages = append(v.stages, &desStage{st: st})
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

func (v *desView) powerTable() *cmp.TableModel {
	if v.power == nil {
		v.power = tabulatePower(v.PowerModel())
	}
	return v.power
}

// desStage adapts *stage.Stage to StageControl. It keeps its instance list
// until the stage's membership moves, and its profile table for good: a
// stage's profile is fixed.
type desStage struct {
	st      *stage.Stage
	members uint64     // st.Membership() when ins was built
	ins     []Instance // nil until the first call
	profile *cmp.TableProfile
}

func (d *desStage) Name() string                { return d.st.Name() }
func (d *desStage) CanScale() bool              { return d.st.Kind() == stage.Pipeline }
func (d *desStage) Profile() cmp.SpeedupProfile { return d.st.Profile() }

func (d *desStage) Instances() []Instance {
	if m := d.st.Membership(); d.ins == nil || m != d.members {
		active := d.st.ActiveSet()
		d.ins = make([]Instance, len(active))
		for i, in := range active {
			d.ins[i] = in
		}
		d.members = m
	}
	return d.ins
}

func (d *desStage) profileTable() *cmp.TableProfile {
	if d.profile == nil {
		d.profile = tabulateProfile(d.Profile())
	}
	return d.profile
}

func (d *desStage) Clone(bottleneck Instance) (Instance, error) {
	src, ok := bottleneck.(*stage.Instance)
	if !ok {
		return nil, fmt.Errorf("core: clone target %s is not a DES instance", bottleneck.Name())
	}
	return d.st.Clone(src)
}

func (d *desStage) Withdraw(victim, target Instance) error {
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
