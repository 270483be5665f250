package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestDiurnalShape(t *testing.T) {
	d, err := NewDiurnal(1, 5, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxRate() != 5 {
		t.Errorf("MaxRate = %v", d.MaxRate())
	}
	// Midpoint at t=0, crest a quarter period in, trough at three quarters.
	if r := d.RateAt(0); math.Abs(r-3) > 1e-9 {
		t.Errorf("RateAt(0) = %v, want 3", r)
	}
	if r := d.RateAt(6 * time.Hour); math.Abs(r-5) > 1e-9 {
		t.Errorf("RateAt(T/4) = %v, want 5", r)
	}
	if r := d.RateAt(18 * time.Hour); math.Abs(r-1) > 1e-9 {
		t.Errorf("RateAt(3T/4) = %v, want 1", r)
	}
	// Rates never leave [base, peak].
	for h := 0; h < 48; h++ {
		r := d.RateAt(time.Duration(h) * time.Hour)
		if r < 1-1e-9 || r > 5+1e-9 {
			t.Fatalf("RateAt(%dh) = %v outside [1,5]", h, r)
		}
	}
}

func TestNewDiurnalValidates(t *testing.T) {
	if _, err := NewDiurnal(5, 1, time.Hour); err == nil {
		t.Error("peak below base accepted")
	}
	if _, err := NewDiurnal(-1, 1, time.Hour); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := NewDiurnal(1, 2, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestDiurnalDrivesGenerator(t *testing.T) {
	eng, sys, a := buildSystem(t)
	d, err := NewDiurnal(0.5, 4, 400*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	gen := NewGenerator(eng, sys, d, func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, []int{1, 1, 1})
	}, rng, 400*time.Second)
	gen.Start()
	eng.RunUntil(400 * time.Second)
	// Mean rate = 2.25 qps over a full cycle → ≈900 arrivals.
	got := float64(gen.Issued())
	if got < 700 || got > 1100 {
		t.Errorf("diurnal issued %v queries over one cycle, want ≈900", got)
	}
}
