package live

import (
	"sync"
	"testing"
	"time"

	"powerchief/internal/controlplane"
	"powerchief/internal/core"
)

// TestControllerStopConcurrently is the -race regression test for the old
// controller's double-close panic: Stop raced Stop on a bare channel close.
// The shared control-plane loop on the cluster's clock must let any number
// of goroutines stop it, each returning only once the loop has fully exited.
func TestControllerStopConcurrently(t *testing.T) {
	c := twoStageCluster(t, 1)
	defer c.Close()
	agg := core.NewAggregator(time.Second, c.Now)
	c.OnComplete(agg.Ingest)
	ctl := startLoop(t, c, agg, core.Static{}, 10*time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctl.Stop()
		}()
	}
	wg.Wait()
	ctl.Stop() // still idempotent after the storm
}

// startLoop runs the policy against the cluster the way every live caller
// does: the shared control loop on the cluster's compressed clock.
func startLoop(t *testing.T, c *Cluster, agg *core.Aggregator, policy core.Policy, interval time.Duration) *controlplane.Loop {
	t.Helper()
	loop, err := controlplane.Start(c.Clock(), controlplane.NewAdjuster(c, agg), controlplane.Options{
		Policy:   policy,
		Interval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}
