package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/fault"
	"powerchief/internal/telemetry"
)

// Strict-cap coverage models the one thing the RPC chaos harness cannot see:
// the watts a node PHYSICALLY draws, which track the last grant the node
// accepted — not the coordinator's ledger. A partitioned node fails every
// exchange but keeps drawing its old grant until its own partition detection
// self-fences it some epochs later. Re-granting the reclaimed watts before
// that happens pushes the cluster's physical draw over the cap; StrictCap
// holds them back for exactly that window.

var errCapPartitioned = errors.New("fleet test: partitioned")

// capNode is an in-process Transport with a physical-draw model.
type capNode struct {
	name           string
	metric         time.Duration
	selfFenceAfter int // silent epochs before the node fences itself

	mu           sync.Mutex
	granted      cmp.Watts // last ACCEPTED grant — what the node draws
	epoch        uint64
	partitioned  bool
	refuseGrants bool // answers reports but rejects every grant
	silentEpochs int
}

func (n *capNode) Name() string { return n.name }

func (n *capNode) Report() (Report, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned {
		return Report{}, errCapPartitioned
	}
	return Report{Node: n.name, Epoch: n.epoch, Metric: n.metric,
		Draw: n.granted, Budget: n.granted}, nil
}

func (n *capNode) Grant(g Grant) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned || n.refuseGrants {
		return errCapPartitioned
	}
	// Accepting a grant proves the node is reachable again: it draws the
	// new value and its partition-detection clock resets.
	n.granted = g.Watts
	n.epoch = g.Epoch
	n.silentEpochs = 0
	return nil
}

// physical is the node's actual draw: the last accepted grant, unless the
// node has noticed the partition and fenced itself down to zero.
func (n *capNode) physical() cmp.Watts {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.silentEpochs >= n.selfFenceAfter {
		return 0
	}
	return n.granted
}

func (n *capNode) partition(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned = on
	if !on {
		n.silentEpochs = 0
	}
}

// tick ages a partitioned node's own detection clock by one epoch.
func (n *capNode) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned {
		n.silentEpochs++
	}
}

// capHarness is a coordinator over physical-draw nodes.
type capHarness struct {
	coord  *Coordinator
	nodes  []*capNode
	reb    *arbiter.Planner
	audit  *telemetry.AuditLog
	budget cmp.Watts
}

func startCapFleet(t *testing.T, opts Options) *capHarness {
	t.Helper()
	h := &capHarness{reb: NewRebalance(), audit: telemetry.NewAuditLog(1024), budget: opts.Budget}
	var transports []Transport
	for i := 0; i < 3; i++ {
		n := &capNode{
			name:           fmt.Sprintf("node-%d", i),
			metric:         time.Duration(i+1) * time.Second,
			selfFenceAfter: 3,
		}
		h.nodes = append(h.nodes, n)
		transports = append(transports, n)
	}
	opts.Audit = h.audit
	coord, err := NewCoordinator(opts, transports...)
	if err != nil {
		t.Fatal(err)
	}
	h.coord = coord
	return h
}

// epoch runs one control epoch: partitioned nodes age their own detection
// clocks first (their time passes whether or not the coordinator reaches
// them), then the coordinator adjusts. Returns Σ physical draw after.
func (h *capHarness) epoch(t *testing.T) cmp.Watts {
	t.Helper()
	for _, n := range h.nodes {
		n.tick()
	}
	if _, err := h.coord.Adjust(h.reb); err != nil && !fault.IsDegraded(err) {
		t.Fatalf("Adjust: %v", err)
	}
	var sum cmp.Watts
	for _, n := range h.nodes {
		sum += n.physical()
	}
	return sum
}

// TestFleetStrictCapPhysicalDrawNeverExceedsBudget is the headline strict-cap
// chaos sequence: allocate, partition a node mid-run, and assert at EVERY
// control epoch through quarantine, hold, hold expiry, heal and re-admission
// that the sum of physically drawn watts never exceeds the cluster budget —
// even while the partitioned node is still burning its stale grant.
func TestFleetStrictCapPhysicalDrawNeverExceedsBudget(t *testing.T) {
	h := startCapFleet(t, Options{
		Budget: 100, Floor: 10, SuspectAfter: 2, StrictCap: true, // HoldEpochs defaults to SuspectAfter
	})

	check := func(step string) cmp.Watts {
		t.Helper()
		sum := h.epoch(t)
		if sum > h.budget+1e-9 {
			t.Fatalf("%s: Σ physical draw %.2fW over the %.2fW budget", step, float64(sum), float64(h.budget))
		}
		return sum
	}

	// Cold start: the pool is fully allocated and fully drawn.
	if sum := check("cold start"); sum < h.budget-1e-6 {
		t.Fatalf("cold start drew %.2fW of %.2fW", float64(sum), float64(h.budget))
	}
	stale := h.nodes[0].physical()
	if stale < 10-1e-9 {
		t.Fatalf("node-0 granted %.2fW, want at least the floor", float64(stale))
	}

	// Partition node-0. It keeps drawing its old grant for selfFenceAfter=3
	// epochs; the coordinator quarantines it after SuspectAfter=2 failures.
	h.nodes[0].partition(true)
	check("failure 1 (suspect)")
	check("reclaim epoch (quarantine)")

	// The reclaim epoch must have HELD the watts, not re-granted them: node-0
	// is still drawing them.
	if held := h.coord.HeldWatts(); !wattsNear(held, stale) {
		t.Fatalf("HeldWatts = %.2fW after reclaim, want the %.2fW stale grant", float64(held), float64(stale))
	}
	if h.nodes[0].physical() == 0 {
		t.Fatal("test premise broken: node-0 self-fenced before the hold mattered")
	}

	// Hold window: node-0 self-fences during it.
	check("hold epoch")
	if h.nodes[0].physical() != 0 {
		t.Fatal("node-0 did not self-fence after 3 silent epochs")
	}

	// Hold expiry: the watts return to the pool and the survivors absorb them.
	sum := check("hold expired, redistributed")
	if held := h.coord.HeldWatts(); held != 0 {
		t.Fatalf("HeldWatts = %.2fW after expiry, want 0", float64(held))
	}
	if sum < h.budget-1e-6 {
		t.Errorf("survivors drew %.2fW of %.2fW after the hold expired", float64(sum), float64(h.budget))
	}

	// Heal: budget-safe re-admission at the floor, still under the cap.
	h.nodes[0].partition(false)
	check("heal (re-admission)")
	if got := h.coord.Healths()["node-0"]; got != fault.Healthy {
		t.Fatalf("node-0 health %v after heal, want healthy", got)
	}
	check("post-heal epoch")

	// The audit trail shows the reclaim was a hold, not a plain reclaim.
	sawHeld := false
	for _, e := range h.audit.Events() {
		if strings.Contains(e.Detail, "quarantine reclaim (held)") {
			sawHeld = true
		}
	}
	if !sawHeld {
		t.Error("audit trail missing the held-reclaim record")
	}
}

// TestFleetFailOpenWindowWithoutStrictCap documents why StrictCap exists:
// with it off, the reclaim epoch re-grants the partitioned node's watts to
// the survivors while the node is still drawing them, and the cluster's
// physical draw overshoots the cap.
func TestFleetFailOpenWindowWithoutStrictCap(t *testing.T) {
	h := startCapFleet(t, Options{Budget: 100, Floor: 10, SuspectAfter: 2})

	h.epoch(t) // cold start
	stale := h.nodes[0].physical()
	h.nodes[0].partition(true)
	h.epoch(t)        // failure 1 → suspect
	sum := h.epoch(t) // failure 2 → quarantine, reclaim, immediate re-grant
	want := h.budget + stale
	if sum < want-1e-6 {
		t.Fatalf("fail-open overshoot not observed: Σ physical %.2fW, want %.2fW (budget + stale grant)",
			float64(sum), float64(want))
	}
	if held := h.coord.HeldWatts(); held != 0 {
		t.Fatalf("HeldWatts = %.2fW with StrictCap off, want 0", float64(held))
	}
}

// TestFleetStrictCapReleasesHoldOnReadmission: a hold outlives its node's
// quarantine when the node heals quickly — re-admission proves the node
// accepted a fresh fenced grant and stopped drawing the old one, so the hold
// is released early instead of idling watts for the full window.
func TestFleetStrictCapReleasesHoldOnReadmission(t *testing.T) {
	h := startCapFleet(t, Options{
		Budget: 100, Floor: 10, SuspectAfter: 2, StrictCap: true, HoldEpochs: 50,
	})

	h.epoch(t) // cold start
	h.nodes[0].partition(true)
	h.epoch(t) // suspect
	h.epoch(t) // quarantine + hold
	if held := h.coord.HeldWatts(); held <= 0 {
		t.Fatal("no hold created at the reclaim epoch")
	}

	// Heal well before the 50-epoch hold would expire.
	h.nodes[0].partition(false)
	h.epoch(t) // re-admission releases the hold
	if got := h.coord.Healths()["node-0"]; got != fault.Healthy {
		t.Fatalf("node-0 health %v after heal, want healthy", got)
	}
	if held := h.coord.HeldWatts(); held != 0 {
		t.Fatalf("HeldWatts = %.2fW after re-admission, want 0 (released early)", float64(held))
	}

	// With the hold gone the pool is whole again: the next epoch allocates
	// the full budget.
	sum := h.epoch(t)
	if sum < h.budget-1e-6 {
		t.Errorf("pool still short after release: Σ physical %.2fW of %.2fW", float64(sum), float64(h.budget))
	}
	if sum > h.budget+1e-9 {
		t.Errorf("Σ physical %.2fW over budget", float64(sum))
	}
}
