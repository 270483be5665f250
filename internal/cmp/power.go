package cmp

import (
	"fmt"
	"math"
)

// Watts expresses power in watts.
type Watts float64

// PowerModel maps a core frequency level to the power the core draws while a
// service instance runs on it. The paper cannot measure core-level power on
// its platform and instead uses the analytic model proposed by Adrenaline
// [22]; implementations here play the same role.
type PowerModel interface {
	// Power returns the power drawn by one core at the given level.
	Power(l Level) Watts
	// MaxPower returns the power at the highest level (convenience).
	MaxPower() Watts
	// MinPower returns the power at the lowest level (convenience).
	MinPower() Watts
}

// HaswellModel is the default analytic per-core power model:
//
//	P(f) = static + k·V(f)²·f   with V(f) rising linearly over the ladder,
//
// which reduces to the familiar static + dynamic ∝ V²f form. The constants
// are calibrated so that a core at 1.8 GHz draws 4.52 W — making the paper's
// Table 2 power budget of 13.56 W exactly "one service instance at the middle
// of the frequency scale per stage" for a three-stage application.
type HaswellModel struct {
	Static Watts   // frequency-independent per-core power
	K      float64 // dynamic coefficient (W per V²·GHz)
	V0     float64 // supply voltage at MinGHz (volts)
	VSlope float64 // voltage increase per GHz above MinGHz (volts/GHz)
}

// DefaultModel returns the calibrated Haswell-like model used throughout the
// experiments.
func DefaultModel() *HaswellModel {
	// Dynamic power dominates (V²f with a steep voltage ramp), so a core at
	// the ladder floor draws well under half of a mid-frequency core — the
	// property that makes recycling two donors to the floor pay for one new
	// mid-frequency instance, which the paper's instance boosting relies on.
	m := &HaswellModel{Static: 0.4, V0: 0.6, VSlope: 0.35}
	// Solve K from the calibration point P(1.8 GHz) = 4.52 W.
	f := 1.8
	v := m.V0 + m.VSlope*(f-float64(MinGHz))
	m.K = (4.52 - float64(m.Static)) / (v * v * f)
	return m
}

// Power implements PowerModel.
func (m *HaswellModel) Power(l Level) Watts {
	f := float64(l.GHz())
	v := m.V0 + m.VSlope*(f-float64(MinGHz))
	return m.Static + Watts(m.K*v*v*f)
}

// MaxPower implements PowerModel.
func (m *HaswellModel) MaxPower() Watts { return m.Power(MaxLevel) }

// MinPower implements PowerModel.
func (m *HaswellModel) MinPower() Watts { return m.Power(0) }

// TableModel is a PowerModel backed by an explicit per-level table, for
// plugging in measured numbers.
type TableModel [NumLevels]Watts

// Power implements PowerModel.
func (t *TableModel) Power(l Level) Watts {
	if !l.Valid() {
		panic(fmt.Sprintf("cmp: invalid frequency level %d", int(l)))
	}
	return t[l]
}

// MaxPower implements PowerModel.
func (t *TableModel) MaxPower() Watts { return t[MaxLevel] }

// MinPower implements PowerModel.
func (t *TableModel) MinPower() Watts { return t[0] }

// Validate checks that the table is positive and strictly increasing, which
// every recycling algorithm in the controller relies on. A nil table is
// missing, not empty.
func (t *TableModel) Validate() error {
	if t == nil {
		return fmt.Errorf("cmp: no power table")
	}
	for l := Level(0); l < NumLevels; l++ {
		if t[l] <= 0 {
			return fmt.Errorf("cmp: table power at %v is %v, must be positive", l, t[l])
		}
		if l > 0 && t[l] <= t[l-1] {
			return fmt.Errorf("cmp: table power not increasing at %v", l)
		}
	}
	return nil
}

// HighestAffordable returns the highest level whose power does not exceed
// budget, and false when even the lowest level exceeds it.
func HighestAffordable(m PowerModel, budget Watts) (Level, bool) {
	if m.Power(0) > budget+1e-9 {
		return 0, false
	}
	lo, hi := Level(0), MaxLevel
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.Power(mid) <= budget+1e-9 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, true
}

// BoostCost returns the additional power needed to move a core from level
// from to level to. Negative when stepping down.
func BoostCost(m PowerModel, from, to Level) Watts {
	return m.Power(to) - m.Power(from)
}

// ApproxEqual reports whether two power values are equal within a nanowatt
// tolerance, absorbing float accumulation error in budget bookkeeping.
func ApproxEqual(a, b Watts) bool { return math.Abs(float64(a-b)) < 1e-9 }
