package fleet

import (
	"fmt"
	"testing"
	"time"

	"powerchief/internal/rpc"
	"powerchief/internal/stats"
)

// TestFleetIngestHeartbeatCarriesDeltas drives node-local observations over
// real RPC heartbeats: deltas ride the reports, merge into the fleet-wide
// histogram, and no extra RPCs are spent on statistics.
func TestFleetIngestHeartbeatCarriesDeltas(t *testing.T) {
	var transports []Transport
	var svcs []*NodeService
	for i := 0; i < 3; i++ {
		svc, err := NewNodeService(fmt.Sprintf("node-%d", i), NewSynthBackend(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		svc.EnableIngest(0, 0)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node, err := DialNode(addr, rpc.ClientOptions{CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, svc)
		transports = append(transports, node)
		t.Cleanup(func() { node.Close(); svc.Close() })
	}
	coord, err := NewCoordinator(Options{Budget: 300, Floor: 10}, transports...)
	if err != nil {
		t.Fatal(err)
	}

	// Each node observes completions locally between heartbeats.
	const perNode = 50
	for ni, svc := range svcs {
		for i := 0; i < perNode; i++ {
			svc.Observe(time.Duration(ni+1) * 10 * time.Millisecond)
			svc.ObserveRecord(fmt.Sprintf("web-%d", ni), "web", time.Millisecond, 5*time.Millisecond)
		}
	}
	if pending := svcs[0].IngestPending(); pending != perNode {
		t.Fatalf("pending before heartbeat = %d, want %d", pending, perNode)
	}

	if _, err := coord.Adjust(NewRebalance()); err != nil {
		t.Fatal(err)
	}

	deltas, queries, gaps := coord.IngestCounts()
	if deltas != 3 || queries != 3*perNode || gaps != 0 {
		t.Fatalf("ingest counts = (%d, %d, %d), want (3, %d, 0)", deltas, queries, gaps, 3*perNode)
	}
	if pending := svcs[0].IngestPending(); pending != 0 {
		t.Fatalf("heartbeat left %d pending observations on the node", pending)
	}

	count, mean, p99, ok := coord.FleetLatency(0.99)
	if !ok || count != 3*perNode {
		t.Fatalf("fleet latency count = %d (ok=%v), want %d", count, ok, 3*perNode)
	}
	// Exact mean across 50×10ms + 50×20ms + 50×30ms = 20ms.
	if mean != 20*time.Millisecond {
		t.Fatalf("fleet mean = %v, want 20ms", mean)
	}
	if p99 < 20*time.Millisecond {
		t.Fatalf("fleet p99 = %v, implausibly low", p99)
	}

	// A second epoch with no observations ships nothing and breaks nothing.
	if _, err := coord.Adjust(NewRebalance()); err != nil {
		t.Fatal(err)
	}
	if d2, _, g2 := coord.IngestCounts(); d2 != 3 || g2 != 0 {
		t.Fatalf("idle heartbeat changed ingest counts: deltas=%d gaps=%d", d2, g2)
	}
}

// TestFleetIngestMatchesDirectMerge proves the heartbeat-merged fleet
// histogram equals a direct merge of every node's observations — the
// exactness argument one level up.
func TestFleetIngestMatchesDirectMerge(t *testing.T) {
	var transports []Transport
	direct := stats.NewBinHistogram()
	for i := 0; i < 2; i++ {
		svc, err := NewNodeService(fmt.Sprintf("node-%d", i), NewSynthBackend(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		svc.EnableIngest(0, 0)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node, err := DialNode(addr, rpc.ClientOptions{CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close(); svc.Close() })
		transports = append(transports, node)
		for j := 1; j <= 100; j++ {
			lat := time.Duration(j*(i+1)) * time.Millisecond
			svc.Observe(lat)
			direct.Observe(lat)
		}
	}
	coord, err := NewCoordinator(Options{Budget: 200, Floor: 10}, transports...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Adjust(NewRebalance()); err != nil {
		t.Fatal(err)
	}
	count, mean, p99, ok := coord.FleetLatency(0.99)
	if !ok {
		t.Fatal("no fleet latency after heartbeats")
	}
	if count != direct.Count() || mean != direct.Mean() || p99 != direct.Quantile(0.99) {
		t.Fatalf("fleet merge (n=%d mean=%v p99=%v) != direct (n=%d mean=%v p99=%v)",
			count, mean, p99, direct.Count(), direct.Mean(), direct.Quantile(0.99))
	}
}

// TestFleetIngestOptionalPerNode: a node without EnableIngest — a live
// configuration: its reports carry no delta — coexists with delta-shipping
// nodes on one coordinator.
func TestFleetIngestOptionalPerNode(t *testing.T) {
	var transports []Transport
	for i := 0; i < 2; i++ {
		svc, err := NewNodeService(fmt.Sprintf("node-%d", i), NewSynthBackend(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			svc.EnableIngest(0, 0)
			svc.Observe(15 * time.Millisecond)
		}
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node, err := DialNode(addr, rpc.ClientOptions{CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close(); svc.Close() })
		transports = append(transports, node)
	}
	coord, err := NewCoordinator(Options{Budget: 200, Floor: 10}, transports...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Adjust(NewRebalance()); err != nil {
		t.Fatal(err)
	}
	deltas, queries, _ := coord.IngestCounts()
	if deltas != 1 || queries != 1 {
		t.Fatalf("ingest counts = (%d, %d), want the one delta node's (1, 1)", deltas, queries)
	}
}

// deltaNode is an in-process Transport whose next report carries a scripted
// delta.
type deltaNode struct {
	name  string
	epoch uint64
	next  *stats.Delta
}

func (n *deltaNode) Name() string { return n.name }

func (n *deltaNode) Report() (Report, error) {
	rep := Report{Node: n.name, Epoch: n.epoch, Metric: time.Millisecond, Ingest: n.next}
	n.next = nil
	return rep, nil
}

func (n *deltaNode) Grant(g Grant) error { n.epoch = g.Epoch; return nil }

// TestFleetIngestCountsLostFlushesNotDiscontinuities: the coordinator counts
// heartbeat deltas that never arrived, per node — frames that arrive late
// are not losses, a delta that does not merge is — and a fenced report (a
// restarted node numbering from 1) re-arms that node's sequence tracking.
func TestFleetIngestCountsLostFlushesNotDiscontinuities(t *testing.T) {
	a, b := &deltaNode{name: "a"}, &deltaNode{name: "b"}
	coord, err := NewCoordinator(Options{Budget: 200, Floor: 10}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	e2e := func() *stats.HistogramDigest {
		h := stats.NewBinHistogram()
		h.Observe(10 * time.Millisecond)
		return h.Digest()
	}
	epoch := func(seqA, seqB uint64) {
		t.Helper()
		a.next = &stats.Delta{V: stats.DeltaVersion, Seq: seqA, Queries: 1, E2E: e2e()}
		if seqB != 0 {
			b.next = &stats.Delta{V: stats.DeltaVersion, Seq: seqB, Queries: 1, E2E: e2e()}
		}
		if _, err := coord.Adjust(NewRebalance()); err != nil {
			t.Fatal(err)
		}
	}
	lost := func() uint64 { _, _, n := coord.IngestCounts(); return n }

	epoch(1, 1)
	epoch(3, 2)
	epoch(2, 4)
	epoch(4, 0)
	if got := lost(); got != 1 {
		t.Fatalf("a: 1, 3, 2, 4 and b: 1, 2, 4 read as %d lost flushes, want b's one", got)
	}

	// A delta whose digest cannot merge loses its statistics: counted.
	a.next = &stats.Delta{V: stats.DeltaVersion, Seq: 5, Queries: 1, E2E: &stats.HistogramDigest{Growth: 3, Count: 1}}
	if _, err := coord.Adjust(NewRebalance()); err != nil {
		t.Fatal(err)
	}
	if got := lost(); got != 2 {
		t.Fatalf("an unmergeable delta: %d lost flushes in all, want 2", got)
	}
	if count, _, _, _ := coord.FleetLatency(0.5); count != 7 {
		t.Fatalf("fleet histogram holds %d completions, want the 7 folded", count)
	}

	// b restarts: the new process echoes epoch 0 and numbers from 1. Its first
	// report is fenced (and re-arms b); the following ones start clean.
	b.epoch = 0
	epoch(6, 1)
	epoch(7, 2)
	epoch(8, 3)
	if deltas, queries, got := coord.IngestCounts(); got != 2 || deltas != 12 || queries != 12 {
		t.Fatalf("after b's restart: (%d deltas, %d queries, %d lost), want (12, 12, 2)", deltas, queries, got)
	}
}
