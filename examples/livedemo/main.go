// Livedemo: run the framework as a real runtime rather than a simulation —
// goroutine workers, wall-clock ticker, the same PowerChief policy. Time is
// compressed 100× so a 5-minute experiment takes ~3 seconds.
//
//	go run ./examples/livedemo
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/controlplane"
	"powerchief/internal/core"
	"powerchief/internal/live"
	"powerchief/internal/query"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
)

func main() {
	const scale = 0.01 // 1 virtual second = 10ms wall

	cluster, err := live.NewCluster(live.Options{
		Budget:    13.56,
		TimeScale: scale,
	}, []live.StageSpec{
		{Name: "ASR", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.15), Instances: 1, Level: cmp.MidLevel},
		{Name: "IMM", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.35), Instances: 1, Level: cmp.MidLevel},
		{Name: "QA", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.25), Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	agg := core.NewAggregator(25*time.Second, cluster.Now)
	cluster.OnComplete(agg.Ingest)
	var mu sync.Mutex
	latencies := stats.NewSummary()
	done := make(chan struct{}, 65536)
	cluster.OnComplete(func(q *query.Query) {
		mu.Lock()
		latencies.Observe(q.Latency())
		mu.Unlock()
		done <- struct{}{}
	})

	ctl, err := controlplane.Start(cluster.Clock(), controlplane.NewAdjuster(cluster, agg),
		controlplane.Options{Policy: core.NewPowerChief(core.DefaultConfig()), Interval: 25 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Stop()

	// Drive ~2 qps (virtual) of Sirius-like load for 300 virtual seconds.
	rng := rand.New(rand.NewSource(1))
	sent := 0
	horizon := time.Now().Add(time.Duration(300 * scale * float64(time.Second)))
	for time.Now().Before(horizon) {
		work := [][]time.Duration{
			{draw(rng, 300*time.Millisecond, 0.3)},
			{draw(rng, 130*time.Millisecond, 0.25)},
			{draw(rng, 700*time.Millisecond, 0.55)},
		}
		if err := cluster.Submit(query.New(query.ID(sent), cluster.Now(), work)); err != nil {
			log.Fatal(err)
		}
		sent++
		time.Sleep(time.Duration(rng.ExpFloat64() / 2.2 * scale * float64(time.Second)))
	}
	// Wait for the pipeline to drain.
	for received := 0; received < sent; received++ {
		<-done
	}

	fmt.Printf("live run: %d queries, avg=%v p99=%v (virtual time)\n", sent,
		latencies.Mean().Round(time.Millisecond), latencies.Percentile(0.99).Round(time.Millisecond))
	tally := ctl.Boosts()
	boosts := 0
	for _, kind := range []core.BoostKind{core.BoostFrequency, core.BoostInstance} {
		boosts += tally[kind]
		fmt.Printf("  %s: %d\n", kind, tally[kind])
	}
	fmt.Printf("controller made %d boosting decisions across %d intervals\n", boosts, ctl.Total())
}

// draw samples a lognormal demand.
func draw(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	return time.Duration(float64(median) * math.Exp(sigma*rng.NormFloat64()))
}
