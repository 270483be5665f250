package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerchief/internal/query"
	"powerchief/internal/sim"
	"powerchief/internal/stage"
)

// Source yields the instantaneous arrival rate (queries per second) at any
// virtual time. Rates must be bounded by MaxRate for thinning to be exact.
type Source interface {
	RateAt(t time.Duration) float64
	MaxRate() float64
}

// Constant is a fixed-rate Source.
type Constant float64

// RateAt implements Source.
func (c Constant) RateAt(time.Duration) float64 { return float64(c) }

// MaxRate implements Source.
func (c Constant) MaxRate() float64 { return float64(c) }

// Phase is one segment of a piecewise-constant rate trace.
type Phase struct {
	Until time.Duration // phase applies while t < Until
	Rate  float64       // queries per second
}

// Trace is a piecewise-constant rate profile. After the last phase the final
// rate persists.
type Trace struct {
	Phases []Phase
}

// NewTrace validates phase ordering and returns the trace.
func NewTrace(phases ...Phase) (*Trace, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: trace needs at least one phase")
	}
	for i, p := range phases {
		if p.Rate < 0 {
			return nil, fmt.Errorf("workload: phase %d has negative rate", i)
		}
		if i > 0 && phases[i].Until <= phases[i-1].Until {
			return nil, fmt.Errorf("workload: phase %d boundary %v not after %v", i, phases[i].Until, phases[i-1].Until)
		}
	}
	return &Trace{Phases: phases}, nil
}

// RateAt implements Source.
func (tr *Trace) RateAt(t time.Duration) float64 {
	for _, p := range tr.Phases {
		if t < p.Until {
			return p.Rate
		}
	}
	return tr.Phases[len(tr.Phases)-1].Rate
}

// MaxRate implements Source.
func (tr *Trace) MaxRate() float64 {
	max := 0.0
	for _, p := range tr.Phases {
		if p.Rate > max {
			max = p.Rate
		}
	}
	return max
}

// Scaled multiplies a Source's rate by a constant factor.
type Scaled struct {
	Base   Source
	Factor float64
}

// RateAt implements Source.
func (s Scaled) RateAt(t time.Duration) float64 { return s.Base.RateAt(t) * s.Factor }

// MaxRate implements Source.
func (s Scaled) MaxRate() float64 { return s.Base.MaxRate() * s.Factor }

// Level names the three representative load levels of the evaluation.
type Level int

const (
	Low Level = iota
	Medium
	High
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Utilization returns the load level's target utilization of the baseline
// configuration: low and medium leave headroom; high transiently saturates
// the bottleneck stage so queuing dominates.
func (l Level) Utilization() float64 {
	switch l {
	case Low:
		return 0.50
	case Medium:
		return 0.90
	case High:
		return 1.15
	default:
		panic(fmt.Sprintf("workload: unknown load level %d", int(l)))
	}
}

// ParseLevel converts a level name.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "low":
		return Low, nil
	case "medium":
		return Medium, nil
	case "high":
		return High, nil
	default:
		return 0, fmt.Errorf("workload: unknown load level %q", s)
	}
}

// WorkDrawer supplies the per-stage work matrix of a freshly arrived query;
// app.App.DrawWork curried with the stage layout satisfies this.
type WorkDrawer func(rng *rand.Rand) [][]time.Duration

// WorkRefiller is a WorkDrawer that is also handed the matrix the arriving
// query carried through its previous life (nil on its first) and may return
// it refilled; app.App.DrawWorkInto curried with the stage layout is one.
type WorkRefiller func(into [][]time.Duration, rng *rand.Rand) [][]time.Duration

// Generator drives Poisson arrivals into a stage.System on a simulation
// engine. Time-varying rates are realized by thinning against the source's
// MaxRate, which keeps the process exact for piecewise-constant traces.
//
// At most one candidate arrival is outstanding, so the generator owns that
// one event and arms it per candidate (sim.Engine.Arm). It owns its queries
// too: each arrival takes one from the generator's pool, and the system hands
// it back after the last completion callback (query.Pool, Query.Release).
type Generator struct {
	eng    *sim.Engine
	sys    *stage.System
	src    Source
	draw   WorkRefiller
	pool   query.Pool
	rng    *rand.Rand
	until  time.Duration
	nextID query.ID
	issued uint64
	paused bool

	arrival   sim.Event // the pending candidate arrival
	onArrival func()    // g.arrive, bound once
	maxRate   float64   // the thinning rate the pending candidate was drawn at
}

// NewGenerator prepares a generator that submits queries from virtual time 0
// until the given horizon, each with a fresh work matrix from draw.
func NewGenerator(eng *sim.Engine, sys *stage.System, src Source, draw WorkDrawer, rng *rand.Rand, until time.Duration) *Generator {
	if draw == nil {
		panic("workload: NewGenerator requires a non-nil drawer")
	}
	return NewRefillingGenerator(eng, sys, src, func(_ [][]time.Duration, r *rand.Rand) [][]time.Duration {
		return draw(r)
	}, rng, until)
}

// NewRefillingGenerator is NewGenerator for a drawer that reuses the work
// matrix of the recycled query it draws for.
func NewRefillingGenerator(eng *sim.Engine, sys *stage.System, src Source, draw WorkRefiller, rng *rand.Rand, until time.Duration) *Generator {
	if eng == nil || sys == nil || src == nil || draw == nil || rng == nil {
		panic("workload: a generator requires non-nil engine, system, source, drawer and rng")
	}
	if until <= 0 {
		panic("workload: generation horizon must be positive")
	}
	g := &Generator{eng: eng, sys: sys, src: src, draw: draw, rng: rng, until: until}
	g.onArrival = g.arrive
	return g
}

// Issued returns the number of queries submitted so far.
func (g *Generator) Issued() uint64 { return g.issued }

// Start schedules the arrival process. Must be called before running the
// engine.
func (g *Generator) Start() {
	g.scheduleNext()
}

// Pause suspends the arrival process by cancelling the pending candidate
// arrival: queries already submitted keep flowing through the system, no
// new ones arrive. Used by the multi-tenant harness when a tenant is
// evicted mid-run. Safe to call repeatedly.
func (g *Generator) Pause() {
	g.eng.Cancel(&g.arrival)
	g.paused = true
}

// Resume restarts a paused arrival process from the current virtual
// instant; the generation horizon is unchanged. A no-op when not paused.
func (g *Generator) Resume() {
	if !g.paused {
		return
	}
	g.paused = false
	g.scheduleNext()
}

func (g *Generator) scheduleNext() {
	g.maxRate = g.src.MaxRate()
	if g.maxRate <= 0 {
		return
	}
	// Thinning: candidate arrivals at the max rate, accepted with
	// probability rate(t)/maxRate.
	delay := time.Duration(g.rng.ExpFloat64() / g.maxRate * float64(time.Second))
	if delay <= 0 {
		delay = time.Nanosecond
	}
	g.eng.Arm(&g.arrival, delay, g.onArrival)
}

// arrive handles one candidate arrival.
func (g *Generator) arrive() {
	now := g.eng.Now()
	if now > g.until {
		return
	}
	if accept := g.src.RateAt(now) / g.maxRate; g.rng.Float64() < accept {
		g.nextID++
		q := g.pool.Get(g.nextID, now)
		q.SetWork(g.draw(q.Work, g.rng))
		g.issued++
		g.sys.Submit(q)
	}
	g.scheduleNext()
}

// RateForUtilization converts a target utilization of a configuration's
// capacity into an arrival rate in qps.
func RateForUtilization(capacityQPS, utilization float64) float64 {
	if capacityQPS <= 0 || math.IsInf(capacityQPS, 0) || math.IsNaN(capacityQPS) {
		panic(fmt.Sprintf("workload: invalid capacity %v", capacityQPS))
	}
	return capacityQPS * utilization
}

// BurstTrace builds a bursty load profile: a base rate with periodic bursts
// of burstLen at burstRate, repeating every period until the horizon. User-
// facing load is bursty (§1), and burstiness is what separates the QoS
// power-conservation policies: a stage-agnostic controller must ride every
// burst with the whole deployment at high power, while a stage-aware one
// boosts only the bottleneck.
func BurstTrace(baseRate, burstRate float64, period, burstLen, horizon time.Duration) (*Trace, error) {
	if period <= 0 || burstLen <= 0 || burstLen >= period {
		return nil, fmt.Errorf("workload: burst length must fall inside the period")
	}
	var phases []Phase
	for at := time.Duration(0); at < horizon; at += period {
		phases = append(phases,
			Phase{Until: at + period - burstLen, Rate: baseRate},
			Phase{Until: at + period, Rate: burstRate},
		)
	}
	phases = append(phases, Phase{Until: horizon + period, Rate: baseRate})
	return NewTrace(phases...)
}

// Figure11Trace builds the time-varying load profile of the runtime
// behaviour experiment: load ramps up over the first 125 s, dips low between
// 175 s and 275 s, then oscillates between medium and high — reproducing the
// bottleneck bouncing between stages the paper describes (§8.2).
func Figure11Trace(baseRate float64) *Trace {
	tr, err := NewTrace(
		Phase{Until: 50 * time.Second, Rate: baseRate * 0.6},
		Phase{Until: 125 * time.Second, Rate: baseRate * 1.15},
		Phase{Until: 175 * time.Second, Rate: baseRate * 0.9},
		Phase{Until: 275 * time.Second, Rate: baseRate * 0.3},
		Phase{Until: 400 * time.Second, Rate: baseRate * 1.1},
		Phase{Until: 500 * time.Second, Rate: baseRate * 0.7},
		Phase{Until: 650 * time.Second, Rate: baseRate * 1.2},
		Phase{Until: 775 * time.Second, Rate: baseRate * 0.8},
		Phase{Until: 900 * time.Second, Rate: baseRate * 1.05},
	)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return tr
}
