package app

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/stage"
)

// WorkModel is a lognormal service-demand distribution: Draw returns the
// demand of one query at the reference frequency.
type WorkModel struct {
	Median time.Duration // exp(µ) of the lognormal
	Sigma  float64       // σ of the lognormal (tail spread)
}

// Draw samples one demand.
func (w WorkModel) Draw(rng *rand.Rand) time.Duration {
	if w.Sigma == 0 {
		return w.Median
	}
	return time.Duration(float64(w.Median) * math.Exp(w.Sigma*rng.NormFloat64()))
}

// Mean returns the distribution mean: median·exp(σ²/2).
func (w WorkModel) Mean() time.Duration {
	return time.Duration(float64(w.Median) * math.Exp(w.Sigma*w.Sigma/2))
}

// StageProfile describes one processing stage of an application.
type StageProfile struct {
	Name     string
	Kind     stage.Kind
	Work     WorkModel
	MemBound float64 // fraction of work insensitive to frequency

	// Skew spreads the service demand across the branches of a fan-out
	// stage: branch b of n draws work scaled by a factor ranging linearly
	// from 1−Skew (branch 0) to 1+Skew (branch n−1), modelling imbalanced
	// index shards. Zero means identical branches. Ignored for pipeline
	// stages.
	Skew float64
}

// Profile returns the stage's offline frequency profile.
func (p StageProfile) Profile() cmp.SpeedupProfile {
	return cmp.NewRooflineProfile(p.MemBound)
}

// MeanServing returns the stage's mean serving time per query at the given
// frequency level.
func (p StageProfile) MeanServing(l cmp.Level) time.Duration {
	return time.Duration(float64(p.Work.Mean()) * p.Profile().ExecRatio(l))
}

// App is a multi-stage application definition.
type App struct {
	Name   string
	Stages []StageProfile
}

// Sirius models the intelligent personal assistant application (Figure 8):
// Automatic Speech Recognition, Image Matching and Question-Answering. QA is
// the heaviest, most tail-spread stage; IMM is light and comparatively
// memory-bound — which is why boosting IMM is the paper's example of a bad
// boosting decision (Figure 2).
func Sirius() App {
	return App{Name: "sirius", Stages: []StageProfile{
		{Name: "ASR", Kind: stage.Pipeline, Work: WorkModel{Median: 300 * time.Millisecond, Sigma: 0.30}, MemBound: 0.15},
		{Name: "IMM", Kind: stage.Pipeline, Work: WorkModel{Median: 130 * time.Millisecond, Sigma: 0.25}, MemBound: 0.35},
		{Name: "QA", Kind: stage.Pipeline, Work: WorkModel{Median: 700 * time.Millisecond, Sigma: 0.55}, MemBound: 0.25},
	}}
}

// NLP models the Senna natural-language pipeline (Figure 9): part-of-speech
// tagging, constituency parsing (PSG) and semantic role labelling. Parsing
// dominates, POS is nearly free.
func NLP() App {
	return App{Name: "nlp", Stages: []StageProfile{
		{Name: "POS", Kind: stage.Pipeline, Work: WorkModel{Median: 90 * time.Millisecond, Sigma: 0.20}, MemBound: 0.20},
		{Name: "PSG", Kind: stage.Pipeline, Work: WorkModel{Median: 520 * time.Millisecond, Sigma: 0.50}, MemBound: 0.25},
		{Name: "SRL", Kind: stage.Pipeline, Work: WorkModel{Median: 330 * time.Millisecond, Sigma: 0.40}, MemBound: 0.30},
	}}
}

// WebSearch models the search application (Apache Nutch in the paper) in
// the Table 3 organization: a pool of replicated leaf (index) services, each
// query served by one replica, followed by a light aggregation stage. The
// replica pool is what PowerChief's instance withdraw consolidates in the
// QoS power-saving comparison (Figure 14).
func WebSearch() App {
	return App{Name: "websearch", Stages: []StageProfile{
		{Name: "leaf", Kind: stage.Pipeline, Work: WorkModel{Median: 90 * time.Millisecond, Sigma: 0.40}, MemBound: 0.40},
		{Name: "agg", Kind: stage.Pipeline, Work: WorkModel{Median: 15 * time.Millisecond, Sigma: 0.20}, MemBound: 0.20},
	}}
}

// WebSearchFanOut is the sharded-index variant: every query fans out to all
// leaf shards and joins on the slowest before aggregation. Shard sizes are
// skewed, so per-instance DVFS matters while instance withdraw is
// impossible (shards hold state). Used by the fan-out example and the
// stage-organization ablation.
func WebSearchFanOut() App {
	return App{Name: "websearch-fanout", Stages: []StageProfile{
		{Name: "leaf", Kind: stage.FanOut, Work: WorkModel{Median: 90 * time.Millisecond, Sigma: 0.40}, MemBound: 0.40, Skew: 0.35},
		{Name: "agg", Kind: stage.Pipeline, Work: WorkModel{Median: 15 * time.Millisecond, Sigma: 0.20}, MemBound: 0.20},
	}}
}

// ByName returns a built-in application by name.
func ByName(name string) (App, error) {
	switch name {
	case "sirius":
		return Sirius(), nil
	case "nlp":
		return NLP(), nil
	case "websearch":
		return WebSearch(), nil
	default:
		return App{}, fmt.Errorf("app: unknown application %q (want sirius, nlp or websearch)", name)
	}
}

// Validate checks the application definition.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("app: needs a name")
	}
	if len(a.Stages) == 0 {
		return fmt.Errorf("app %s: needs at least one stage", a.Name)
	}
	for _, sp := range a.Stages {
		if sp.Name == "" {
			return fmt.Errorf("app %s: unnamed stage", a.Name)
		}
		if sp.Work.Median <= 0 {
			return fmt.Errorf("app %s stage %s: work median must be positive", a.Name, sp.Name)
		}
		if sp.Work.Sigma < 0 {
			return fmt.Errorf("app %s stage %s: negative sigma", a.Name, sp.Name)
		}
		if sp.MemBound < 0 || sp.MemBound > 1 {
			return fmt.Errorf("app %s stage %s: mem-bound fraction outside [0,1]", a.Name, sp.Name)
		}
		if sp.Skew < 0 || sp.Skew >= 1 {
			return fmt.Errorf("app %s stage %s: skew outside [0,1)", a.Name, sp.Name)
		}
	}
	return nil
}

// Specs produces the stage.Spec list for this application with the given
// per-stage instance counts and a uniform initial frequency level. A nil
// instances slice means one instance per stage.
func (a App) Specs(instances []int, level cmp.Level) ([]stage.Spec, error) {
	if instances == nil {
		instances = make([]int, len(a.Stages))
		for i := range instances {
			instances[i] = 1
		}
	}
	if len(instances) != len(a.Stages) {
		return nil, fmt.Errorf("app %s: %d instance counts for %d stages", a.Name, len(instances), len(a.Stages))
	}
	specs := make([]stage.Spec, len(a.Stages))
	for i, sp := range a.Stages {
		specs[i] = stage.Spec{
			Name:      sp.Name,
			Kind:      sp.Kind,
			Profile:   sp.Profile(),
			Instances: instances[i],
			Level:     level,
		}
	}
	return specs, nil
}

// DrawWork samples the per-stage work matrix for one query: one branch for
// pipeline stages, branches[i] independent draws for fan-out stages. The
// rows are consecutive, capacity-limited pieces of one array.
func (a App) DrawWork(rng *rand.Rand, branches []int) [][]time.Duration {
	return a.DrawWorkInto(nil, rng, branches)
}

// DrawWorkInto is DrawWork writing into the matrix a recycled query carries:
// when into has the shape this application and these branches draw, it is
// refilled in place and returned, otherwise a fresh matrix is. The draws,
// and their order, are the same either way.
func (a App) DrawWorkInto(into [][]time.Duration, rng *rand.Rand, branches []int) [][]time.Duration {
	width := func(i int) int {
		if a.Stages[i].Kind == stage.FanOut && branches[i] > 1 {
			return branches[i]
		}
		return 1
	}
	total, fits := 0, len(into) == len(a.Stages)
	for i := range a.Stages {
		n := width(i)
		total += n
		fits = fits && len(into[i]) == n
	}
	work := into
	if !fits {
		entries := make([]time.Duration, total)
		work = make([][]time.Duration, len(a.Stages))
		for i := range work {
			n := width(i)
			work[i], entries = entries[:n:n], entries[n:]
		}
	}
	for i, sp := range a.Stages {
		row := work[i]
		n := len(row)
		for b := range row {
			d := sp.Work.Draw(rng)
			if sp.Kind == stage.FanOut && sp.Skew > 0 && n > 1 {
				m := 1 - sp.Skew + 2*sp.Skew*float64(b)/float64(n-1)
				d = time.Duration(float64(d) * m)
			}
			row[b] = d
		}
	}
	return work
}

// CapacityQPS returns the sustainable query throughput of a configuration:
// the minimum over stages of instances divided by mean serving time. For a
// fan-out stage every instance serves every query, so its capacity is a
// single branch's service rate. Load levels are defined relative to this.
func (a App) CapacityQPS(instances []int, level cmp.Level) float64 {
	capacity := math.Inf(1)
	for i, sp := range a.Stages {
		serve := sp.MeanServing(level).Seconds()
		var c float64
		if sp.Kind == stage.FanOut {
			// Every leaf serves every query; the slowest (most skewed)
			// shard bounds throughput.
			c = 1 / (serve * (1 + sp.Skew))
		} else {
			c = float64(instances[i]) / serve
		}
		if c < capacity {
			capacity = c
		}
	}
	return capacity
}

// HeaviestStage returns the index of the stage with the largest mean serving
// demand — the a-priori bottleneck under equal provisioning.
func (a App) HeaviestStage() int {
	best, bestMean := 0, time.Duration(0)
	for i, sp := range a.Stages {
		if m := sp.Work.Mean(); m > bestMean {
			best, bestMean = i, m
		}
	}
	return best
}
