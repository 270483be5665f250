// Distributed: the real-system prototype in one process — three stage
// services listening on localhost TCP (as cmd/stagesvc would in separate
// processes), a Command Center connected over the framework's RPC, Poisson
// load, and the PowerChief policy actuating DVFS/clone/withdraw remotely.
// Time is compressed 100×.
//
//	go run ./examples/distributed
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
	"powerchief/internal/dist"
	"powerchief/internal/stage"
)

const scale = 0.01 // 1 virtual second = 10ms wall

func main() {
	// Start the three Sirius stage services.
	stages := []dist.StageOptions{
		{Name: "ASR", Kind: stage.Pipeline, MemBound: 0.15, Instances: 1, Level: cmp.MidLevel, TimeScale: scale},
		{Name: "IMM", Kind: stage.Pipeline, MemBound: 0.35, Instances: 1, Level: cmp.MidLevel, TimeScale: scale},
		{Name: "QA", Kind: stage.Pipeline, MemBound: 0.25, Instances: 1, Level: cmp.MidLevel, TimeScale: scale},
	}
	var addrs []string
	for _, so := range stages {
		svc, err := dist.NewStageService(so)
		if err != nil {
			log.Fatal(err)
		}
		defer svc.Close()
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stage %s on %s\n", so.Name, addr)
		addrs = append(addrs, addr)
	}

	// Command Center with the Table 2 budget.
	center, err := dist.NewCenter(13.56, 25*time.Second, addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer center.Close()

	// Control loop: PowerChief every 25 virtual seconds, on the shared
	// control plane with a wall clock compressed to the stages' time scale.
	loop, err := controlplane.Start(controlplane.WallClock(scale), center, controlplane.Options{
		Policy:   core.NewPowerChief(core.DefaultConfig()),
		Interval: 25 * time.Second,
		OnOutcome: func(out core.BoostOutcome) {
			if out.Kind != core.BoostNone {
				fmt.Printf("[command center] %s on %s\n", out.Kind, out.Target)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// ~2.2 virtual qps of Sirius-like demands for 300 virtual seconds.
	rng := rand.New(rand.NewSource(1))
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(300 * scale * float64(time.Second)))
	sent := 0
	for time.Now().Before(deadline) {
		work := [][]time.Duration{
			{draw(rng, 300*time.Millisecond, 0.3)},
			{draw(rng, 130*time.Millisecond, 0.25)},
			{draw(rng, 700*time.Millisecond, 0.55)},
		}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := center.Submit(work); err != nil {
				fmt.Println("submit:", err)
			}
		}()
		time.Sleep(time.Duration(rng.ExpFloat64() / 2.2 * scale * float64(time.Second)))
	}
	wg.Wait()
	loop.Stop()

	lat := center.Latency()
	if lat.Count() == 0 {
		log.Fatal("no queries completed")
	}
	// Latencies are wall-clock; scale back to virtual for reporting.
	virt := func(d time.Duration) time.Duration { return time.Duration(float64(d) / scale) }
	fmt.Printf("\ndistributed run: %d queries, avg=%v p99=%v (virtual)\n",
		sent,
		virt(lat.Mean()).Round(time.Millisecond),
		virt(lat.Quantile(0.99)).Round(time.Millisecond))
}

func draw(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	return time.Duration(float64(median) * math.Exp(sigma*rng.NormFloat64()))
}
