package core

import (
	"math/rand"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
	"powerchief/internal/workload"
)

// tickFixture is the control-tick ledger's deployment: Sirius 3,2,6 (11
// instances) on the 16-core chip under its own configuration's budget, high
// load, a one-second statistics window — the des-ctl-dense shape of the
// repository benchmark — warmed for 60 simulated seconds so every window is
// in eviction steady state.
type tickFixture struct {
	eng  *sim.Engine
	view System
	agg  *Aggregator
}

func newTickFixture(tb testing.TB) *tickFixture {
	tb.Helper()
	a := app.Sirius()
	instances := []int{3, 2, 6}
	specs, err := a.Specs(instances, cmp.MidLevel)
	if err != nil {
		tb.Fatal(err)
	}
	model := cmp.DefaultModel()
	var budget cmp.Watts
	for _, spec := range specs {
		budget += cmp.Watts(spec.Instances) * model.Power(spec.Level)
	}
	eng := sim.NewEngine()
	sys, err := stage.NewSystem(eng, cmp.NewChip(16, model, budget), specs)
	if err != nil {
		tb.Fatal(err)
	}
	f := &tickFixture{eng: eng, view: NewDESView(sys), agg: NewAggregator(time.Second, eng.Now)}
	sys.OnComplete(f.agg.Ingest)
	rate := workload.RateForUtilization(a.CapacityQPS(instances, cmp.MidLevel), workload.High.Utilization())
	workload.NewGenerator(eng, sys, workload.Constant(rate), func(r *rand.Rand) [][]time.Duration {
		return a.DrawWork(r, instances)
	}, rand.New(rand.NewSource(7)), 1<<50).Start()
	f.advance(60 * time.Second)
	return f
}

// advance runs the simulation forward by d.
func (f *tickFixture) advance(d time.Duration) { f.eng.RunUntil(f.eng.Now() + d) }

// lastTap keeps only the most recent decision frame.
type lastTap struct{ rec DecisionRecord }

func (t *lastTap) RecordDecision(rec DecisionRecord) { t.rec = rec }

var (
	sinkRanked []Ranked
	sinkSnap   *Snapshot
)

// BenchmarkRank measures one Equation 1 ranking of the live 11-instance
// deployment — what every policy's Plan pays once per tick.
func BenchmarkRank(b *testing.B) {
	f := newTickFixture(b)
	id := Identifier{Metric: MetricExpectedDelay}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRanked = id.Rank(f.view, f.agg)
	}
}

// BenchmarkCaptureSnapshot measures one decision-input capture: topology,
// per-instance statistics and the four window quantiles.
func BenchmarkCaptureSnapshot(b *testing.B) {
	f := newTickFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSnap = CaptureSnapshot(f.view, f.agg)
	}
}

// BenchmarkPowerChiefTick measures a whole recorded PowerChief tick on the
// DES view — capture → plan → apply → record — with one simulated second of
// load between ticks (untimed), so rankings, windows and plans keep moving
// the way they do under the control loop.
func BenchmarkPowerChiefTick(b *testing.B) {
	f := newTickFixture(b)
	pc := NewPowerChief(DefaultConfig())
	pc.SetTap(&lastTap{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.advance(time.Second)
		b.StartTimer()
		pc.Adjust(f.view, f.agg)
	}
}
