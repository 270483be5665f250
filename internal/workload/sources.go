package workload

import (
	"fmt"
	"math"
	"time"
)

// Diurnal models the day-scale load cycle of user-facing services: a
// sinusoid between Base and Peak with the given period, optionally phase
// shifted. The paper's production-deployment future work needs exactly this
// shape for long-horizon studies.
type Diurnal struct {
	Base   float64       // trough rate (qps)
	Peak   float64       // crest rate (qps)
	Period time.Duration // full cycle length
	Phase  time.Duration // shift of the crest
}

// NewDiurnal validates and returns the source.
func NewDiurnal(base, peak float64, period time.Duration) (*Diurnal, error) {
	if base < 0 || peak < base {
		return nil, fmt.Errorf("workload: diurnal needs 0 ≤ base ≤ peak")
	}
	if period <= 0 {
		return nil, fmt.Errorf("workload: diurnal needs a positive period")
	}
	return &Diurnal{Base: base, Peak: peak, Period: period}, nil
}

// RateAt implements Source.
func (d *Diurnal) RateAt(t time.Duration) float64 {
	mid := (d.Base + d.Peak) / 2
	amp := (d.Peak - d.Base) / 2
	angle := 2 * math.Pi * float64(t+d.Phase) / float64(d.Period)
	return mid + amp*math.Sin(angle)
}

// MaxRate implements Source.
func (d *Diurnal) MaxRate() float64 { return d.Peak }
