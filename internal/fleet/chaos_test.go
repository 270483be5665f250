package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/dist"
	"powerchief/internal/fault"
	"powerchief/internal/rpc"
	"powerchief/internal/telemetry"
)

// Fleet-level chaos coverage: a real coordinator over real RPC against node
// services behind ChaosProxies. The promises under test mirror the dist
// layer's one level up: at every control epoch Σ granted node budgets stays
// under the cluster budget, a killed node's watts are reclaimed within one
// epoch, a healed partition's pre-fence state is rejected by epoch fencing,
// and re-admission is budget-safe.

// chaosClientOptions keeps node death cheap: short deadlines, one retryless
// attempt per exchange.
func chaosClientOptions() rpc.ClientOptions {
	return rpc.ClientOptions{DialTimeout: 500 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
}

// fleetHarness is one coordinator over proxied node services.
type fleetHarness struct {
	coord   *Coordinator
	svcs    []*NodeService
	proxies []*dist.ChaosProxy
	reb     *arbiter.Planner
	audit   *telemetry.AuditLog
	budget  cmp.Watts
}

// startFleet builds len(loads) synthetic nodes, each behind its own
// ChaosProxy, and a coordinator dialing through the proxies.
func startFleet(t *testing.T, loads []float64, budget, floor cmp.Watts) *fleetHarness {
	t.Helper()
	h := &fleetHarness{reb: NewRebalance(), audit: telemetry.NewAuditLog(1024), budget: budget}
	var transports []Transport
	for i, load := range loads {
		svc, err := NewNodeService(fmt.Sprintf("node-%d", i), NewSynthBackend(load, 0))
		if err != nil {
			t.Fatal(err)
		}
		backend, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		proxy := dist.NewChaosProxy(backend)
		front, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node, err := DialNode(front, chaosClientOptions())
		if err != nil {
			t.Fatal(err)
		}
		h.svcs = append(h.svcs, svc)
		h.proxies = append(h.proxies, proxy)
		transports = append(transports, node)
		t.Cleanup(func() { node.Close() })
	}
	coord, err := NewCoordinator(Options{
		Budget: budget, Floor: floor, SuspectAfter: 2, Audit: h.audit,
	}, transports...)
	if err != nil {
		t.Fatal(err)
	}
	h.coord = coord
	t.Cleanup(func() {
		for _, p := range h.proxies {
			p.Close()
		}
		for _, s := range h.svcs {
			s.Close()
		}
	})
	return h
}

// adjust runs one control epoch and asserts the cluster invariant after it.
func (h *fleetHarness) adjust(t *testing.T) error {
	t.Helper()
	_, err := h.coord.Adjust(h.reb)
	if err != nil && !fault.IsDegraded(err) {
		t.Fatalf("Adjust: %v", err)
	}
	if draw := h.coord.Draw(); draw > h.budget+1e-9 {
		t.Fatalf("Σ granted %v over cluster budget %v", draw, h.budget)
	}
	return err
}

// TestFleetChaosKillReclaimReadmit is the headline chaos sequence: allocate,
// kill a node mid-run, watch its watts reclaimed within one epoch and
// redistributed, heal the partition, and watch the budget-safe re-admission
// fence the node's stale epoch.
func TestFleetChaosKillReclaimReadmit(t *testing.T) {
	h := startFleet(t, []float64{1, 1.5, 2}, 100, 10)

	// Cold start: the first epoch grants the whole pool, metric-weighted.
	h.adjust(t)
	granted := h.coord.Granted()
	for name, g := range granted {
		if g < 10-1e-9 {
			t.Errorf("node %s granted %v, below the 10W floor", name, g)
		}
	}
	if draw := h.coord.Draw(); draw < 100-1e-6 {
		t.Errorf("cold start allocated %v of the 100W pool", draw)
	}

	// Kill node-0 (partition flavour: the service process stays up and
	// keeps its fencing epoch).
	h.proxies[0].Partition()
	h.adjust(t) // failure 1 → suspect
	h.adjust(t) // failure 2 → down, reclaimed, redistributed
	healths := h.coord.Healths()
	if healths["node-0"] != fault.Down {
		t.Fatalf("node-0 health %v, want down (healths %v)", healths["node-0"], healths)
	}
	granted = h.coord.Granted()
	if granted["node-0"] != 0 {
		t.Fatalf("node-0 still holds %v after the reclaim epoch", granted["node-0"])
	}
	if draw := h.coord.Draw(); draw < 100-1e-6 {
		t.Errorf("reclaimed watts not redistributed: draw %v of 100", draw)
	}

	// Degraded epochs keep running on the survivors.
	h.adjust(t)

	// Heal the partition. The node's service kept its pre-quarantine epoch,
	// so the re-admission probe sees a stale report: fencing counts it, the
	// metric is not ingested, and the node re-enters at the floor.
	preQ, preR, preF := h.coord.Counts()
	h.proxies[0].Restore("")
	h.adjust(t)
	healths = h.coord.Healths()
	if healths["node-0"] != fault.Healthy {
		t.Fatalf("node-0 health %v after heal, want healthy (healths %v)", healths["node-0"], healths)
	}
	granted = h.coord.Granted()
	if g := granted["node-0"]; !wattsNear(g, 10) {
		t.Errorf("re-admitted node granted %v, want the 10W floor", g)
	}
	q, r, f := h.coord.Counts()
	if q < 1 || r <= preR || f <= preF {
		t.Errorf("counters q/r/f = %d/%d/%d (pre %d/%d/%d), want quarantine, re-admission and fence recorded",
			q, r, f, preQ, preR, preF)
	}

	// Cooldown pins the returnee at the floor while survivors re-shuffle.
	h.adjust(t)
	if g := h.coord.Granted()["node-0"]; !wattsNear(g, 10) {
		t.Errorf("node in cooldown granted %v, want the pinned 10W floor", g)
	}

	// The decision trail recorded the whole story.
	var sawQuarantine, sawReadmit, sawFenced, sawGrant bool
	for _, e := range h.audit.Events() {
		switch e.Kind {
		case telemetry.EventNodeQuarantine:
			sawQuarantine = true
		case telemetry.EventNodeReadmit:
			sawReadmit = true
		case telemetry.EventNodeFenced:
			sawFenced = true
		case telemetry.EventSetBudget:
			sawGrant = true
		}
	}
	if !sawQuarantine || !sawReadmit || !sawFenced || !sawGrant {
		t.Errorf("audit trail missing events: quarantine=%v readmit=%v fenced=%v grant=%v",
			sawQuarantine, sawReadmit, sawFenced, sawGrant)
	}
}

// TestFleetChaosHangIsBoundedAndRecovers: a hung node (accepts, never
// answers) costs one call deadline per epoch, not a stuck control loop; a
// transient hang clears without a quarantine, a sustained one quarantines
// and re-admits like a kill.
func TestFleetChaosHangIsBoundedAndRecovers(t *testing.T) {
	h := startFleet(t, []float64{1, 1}, 60, 10)
	h.adjust(t)
	// A second epoch ingests the post-grant metrics so the allocation is
	// settled: the hung epoch below then carries an empty plan, and the hang
	// costs exactly one heartbeat failure rather than heartbeat + grant.
	h.adjust(t)

	// Transient hang: one failed heartbeat → suspect, then recovery.
	h.proxies[1].SetMode(dist.ChaosHang)
	start := time.Now()
	h.adjust(t)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("hung node stalled the epoch for %v", elapsed)
	}
	if got := h.coord.Healths()["node-1"]; got != fault.Suspect {
		t.Fatalf("node-1 health %v after one hung heartbeat, want suspect", got)
	}
	h.proxies[1].Restore("")
	h.proxies[1].SeverConns() // drop the hung in-flight connection
	h.adjust(t)
	if got := h.coord.Healths()["node-1"]; got != fault.Healthy {
		t.Fatalf("node-1 health %v after transient hang, want healthy", got)
	}
	q, _, _ := h.coord.Counts()
	if q != 0 {
		t.Errorf("transient hang caused %d quarantines, want 0", q)
	}

	// Sustained hang: quarantine, reclaim, then re-admission after restore.
	h.proxies[1].SetMode(dist.ChaosHang)
	h.proxies[1].SeverConns()
	h.adjust(t)
	h.adjust(t)
	if got := h.coord.Healths()["node-1"]; got != fault.Down {
		t.Fatalf("node-1 health %v after sustained hang, want down", got)
	}
	if g := h.coord.Granted()["node-1"]; g != 0 {
		t.Errorf("hung node still holds %v", g)
	}
	h.proxies[1].Restore("")
	h.proxies[1].SeverConns()
	h.adjust(t)
	if got := h.coord.Healths()["node-1"]; got != fault.Healthy {
		t.Fatalf("node-1 health %v after restore, want healthy", got)
	}
}

// TestRPCNodeOutlivesSeveredConnections: an exchange issued right after the
// peer closed the connection — before the client's read loop has seen the
// EOF, so the client does not yet know it is broken — is retried once on a
// fresh connection instead of failing. Without the retry this loses to the
// read loop some of the time, which is what made the hang test above flake.
func TestRPCNodeOutlivesSeveredConnections(t *testing.T) {
	h := startFleet(t, []float64{1}, 60, 10)
	h.adjust(t)
	node := h.coord.nodes[0].t
	for i := 0; i < 100; i++ {
		h.proxies[0].SeverConns()
		if _, err := node.Report(); err != nil {
			t.Fatalf("report %d after a severed connection: %v", i, err)
		}
	}
}

// TestNodeServiceRejectsStaleGrant pins the grant half of fencing on the
// wire: a grant whose epoch is behind the last accepted one is rejected
// with fault.ErrStaleEpoch, and the sentinel survives the RPC round trip.
func TestNodeServiceRejectsStaleGrant(t *testing.T) {
	svc, err := NewNodeService("n", NewSynthBackend(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	node, err := DialNode(addr, chaosClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	if err := node.Grant(Grant{Watts: 5, Epoch: 5}); err != nil {
		t.Fatalf("fresh grant: %v", err)
	}
	err = node.Grant(Grant{Watts: 7, Epoch: 3})
	if !errors.Is(err, fault.ErrStaleEpoch) {
		t.Fatalf("stale grant error = %v, want fault.ErrStaleEpoch across the wire", err)
	}
	rep, err := node.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 5 || rep.Budget != 5 {
		t.Fatalf("report %+v, want the epoch-5 5W grant intact", rep)
	}
}

// TestFleetAllNodesDownIsDegraded: with every node quarantined the epoch
// reports fault.ErrNoHealthyNodes — degraded, not fatal — and the fleet
// recovers when nodes return.
func TestFleetAllNodesDownIsDegraded(t *testing.T) {
	h := startFleet(t, []float64{1, 1}, 60, 10)
	h.adjust(t)
	for _, p := range h.proxies {
		p.Kill()
	}
	h.adjust(t)
	err := h.adjust(t)
	if !errors.Is(err, fault.ErrNoHealthyNodes) {
		t.Fatalf("all-down epoch = %v, want ErrNoHealthyNodes", err)
	}
	if draw := h.coord.Draw(); draw != 0 {
		t.Errorf("all nodes down but %v still granted", draw)
	}
	for _, p := range h.proxies {
		p.Restore("")
	}
	h.adjust(t)
	for name, hlt := range h.coord.Healths() {
		if hlt != fault.Healthy {
			t.Errorf("node %s health %v after restore, want healthy", name, hlt)
		}
	}
}
