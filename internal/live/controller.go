package live

import (
	"time"

	"powerchief/internal/controlplane"
)

// Clock returns the cluster's virtual-time clock for the control plane:
// Now is the cluster's compressed time, and Every ticks at the wall
// equivalent of the requested virtual interval.
func (c *Cluster) Clock() controlplane.Clock { return clusterClock{c: c} }

type clusterClock struct{ c *Cluster }

func (cc clusterClock) Now() time.Duration { return cc.c.Now() }

func (cc clusterClock) Every(interval time.Duration, fn func()) (stop func()) {
	return controlplane.TickerEvery(cc.c.wall(interval), fn)
}
