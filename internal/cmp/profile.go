package cmp

import "fmt"

// SpeedupProfile captures a service's latency response to frequency — the
// paper's "offline profiling" (§5.2): for each service the latency reduction
// at every frequency is measured once offline and consulted at runtime to
// estimate the benefit of frequency boosting.
//
// ExecRatio is the execution time at level l normalized to the execution time
// at the lowest level, so ExecRatio(0) == 1 and the ratio decreases
// monotonically with frequency. The α_lh of Equation 3 is
// ExecRatio(h)/ExecRatio(l).
type SpeedupProfile interface {
	ExecRatio(l Level) float64
}

// RooflineProfile is the default analytic profile: a fraction MemBound of the
// work does not scale with core frequency (memory stalls), the rest scales
// linearly:
//
//	ExecRatio(f) = (1 − MemBound)·f_min/f + MemBound
//
// MemBound = 0 is perfectly CPU-bound (linear speedup); MemBound = 1 gains
// nothing from DVFS.
type RooflineProfile struct {
	MemBound float64
}

// NewRooflineProfile validates the memory-bound fraction and returns the
// profile.
func NewRooflineProfile(memBound float64) RooflineProfile {
	if memBound < 0 || memBound > 1 {
		panic(fmt.Sprintf("cmp: memory-bound fraction %v outside [0,1]", memBound))
	}
	return RooflineProfile{MemBound: memBound}
}

// ExecRatio implements SpeedupProfile.
func (p RooflineProfile) ExecRatio(l Level) float64 {
	f := float64(l.GHz())
	return (1-p.MemBound)*float64(MinGHz)/f + p.MemBound
}

// TableProfile is a SpeedupProfile backed by explicit measurements, one entry
// per frequency level, normalized so entry 0 is 1.0.
type TableProfile [NumLevels]float64

// ExecRatio implements SpeedupProfile.
func (t *TableProfile) ExecRatio(l Level) float64 {
	if !l.Valid() {
		panic(fmt.Sprintf("cmp: invalid frequency level %d", int(l)))
	}
	return t[l]
}

// Validate checks the invariants every boosting estimate relies on: the
// ratios start at 1, stay positive, and never increase with frequency. A nil
// table is missing, not empty.
func (t *TableProfile) Validate() error {
	if t == nil {
		return fmt.Errorf("cmp: no profile table")
	}
	if t[0] != 1 {
		return fmt.Errorf("cmp: profile ExecRatio(0) = %v, must be 1", t[0])
	}
	for l := Level(1); l < NumLevels; l++ {
		if t[l] <= 0 {
			return fmt.Errorf("cmp: profile ratio at %v is %v, must be positive", l, t[l])
		}
		if t[l] > t[l-1] {
			return fmt.Errorf("cmp: profile ratio increases at %v", l)
		}
	}
	return nil
}

// Alpha returns the latency-reduction ratio α_lh of Equation 3: the factor by
// which execution time shrinks when moving a service from level from to level
// to under profile p. Values below 1 mean speedup.
func Alpha(p SpeedupProfile, from, to Level) float64 {
	return p.ExecRatio(to) / p.ExecRatio(from)
}

// Speedup returns the speedup factor (≥ 1 for an upward move) of moving from
// level from to level to.
func Speedup(p SpeedupProfile, from, to Level) float64 {
	return p.ExecRatio(from) / p.ExecRatio(to)
}
