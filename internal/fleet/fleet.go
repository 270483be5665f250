package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
)

// Options configures a Coordinator.
type Options struct {
	// Budget is the cluster-wide power budget (required).
	Budget cmp.Watts
	// Floor is the minimum grant a healthy node holds (required). It is the
	// re-admission grant, and n×Floor must fit the budget so every node can
	// in principle be healthy at once.
	Floor cmp.Watts
	// Hysteresis suppresses re-grants smaller than this, so metric noise
	// does not flap budgets between nodes (default Floor/4). It never strands
	// watts: headroom left over after hysteresis keeps is redistributed.
	Hysteresis cmp.Watts
	// SuspectAfter is the consecutive heartbeat failures that quarantine a
	// node (default 2).
	SuspectAfter int
	// CooldownEpochs pins a re-admitted node at the floor grant for this
	// many epochs before it competes for extra watts again (default 3) —
	// the guard against a flapping node repeatedly draining the pool.
	CooldownEpochs int
	// StrictCap closes the fail-open window around quarantine: watts
	// reclaimed from a quarantined node are held out of the distributable
	// pool for HoldEpochs control epochs before re-granting. A partitioned
	// node cannot see the reclamation — it keeps drawing its old grant until
	// its own partition detection self-fences it — so re-granting those
	// watts immediately can push the cluster's physical draw over the cap.
	// The hold keeps Σ physical draw ≤ budget through the heal, trading one
	// detection-timeout of throughput for the guarantee.
	StrictCap bool
	// HoldEpochs is how many control epochs a strict-cap hold lasts
	// (default SuspectAfter — the same number of epochs a silent node needs
	// to notice it has been cut off).
	HoldEpochs int
	// Now supplies audit timestamps (the DES engine's Now in simulation);
	// nil reads as zero.
	Now func() time.Duration
	// Audit, when set, receives the fleet decision trail.
	Audit *telemetry.AuditLog
}

func (o Options) withDefaults() Options {
	if o.Hysteresis <= 0 {
		o.Hysteresis = o.Floor / 4
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2
	}
	if o.CooldownEpochs <= 0 {
		o.CooldownEpochs = 3
	}
	if o.HoldEpochs <= 0 {
		o.HoldEpochs = o.SuspectAfter
	}
	return o
}

// hold is one strict-cap quarantine hold: watts reclaimed from a node but
// kept out of the pool until the adjust epoch `until` (or until the node is
// re-admitted, which proves it accepted a fresh grant and stopped drawing
// the old one).
type hold struct {
	node  string
	watts cmp.Watts
	until uint64
}

// nodeState is the coordinator's ledger entry for one node. It implements
// core.NodeControl, so SetBudgetActions in a plan actuate straight through
// it — every grant leaves at a fresh fencing epoch and commits to the ledger
// only once the node accepted it.
type nodeState struct {
	c    *Coordinator
	t    Transport
	name string

	// All fields below are guarded by c.mu.
	health    fault.Tracker
	granted   cmp.Watts
	epoch     uint64 // fencing epoch of the last accepted grant
	metric    time.Duration
	breakdown []arbiter.StageMetric // per-stage Eq. 1 behind metric (optional)
	cooldown  int                   // epochs left pinned at the floor after re-admission
}

// Name implements core.NodeControl.
func (n *nodeState) Name() string { return n.name }

// Budget implements core.NodeControl: the grant the ledger holds.
func (n *nodeState) Budget() cmp.Watts {
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	return n.granted
}

// SetBudget implements core.NodeControl: deliver a grant at a fresh fencing
// epoch and commit it to the ledger only on acceptance. A delivery failure
// feeds the health state machine and propagates, so the executor rolls the
// plan's applied prefix back.
func (n *nodeState) SetBudget(w cmp.Watts) error {
	n.c.mu.Lock()
	n.c.epoch++
	e := n.c.epoch
	n.c.mu.Unlock()
	if err := n.t.Grant(Grant{Watts: w, Epoch: e}); err != nil {
		n.c.noteFailure(n, err)
		return err
	}
	n.c.mu.Lock()
	n.granted = w
	n.epoch = e
	n.c.mu.Unlock()
	n.c.noteSuccess(n)
	return nil
}

// Coordinator owns a cluster-wide power budget and a ledger of per-node
// grants. It is the fleet-level twin of dist.Center: heartbeats feed one
// fault.Tracker per node, quarantined nodes' watts are reclaimed
// within one epoch, re-admission is budget-safe, and epoch fencing rejects
// state from before a reclamation. It implements controlplane.Adjuster (so
// the shared Loop drives it over any Clock) and core.System one level up:
// Draw() is the sum of granted node budgets, Budget() the cluster cap.
type Coordinator struct {
	opts Options

	// adjustMu serializes control epochs (and the re-admissions inside
	// them); mu guards the ledger underneath.
	adjustMu sync.Mutex

	mu      sync.Mutex
	nodes   []*nodeState
	epoch   uint64 // global fencing epoch; every grant carries a fresh value
	adjusts uint64 // control epochs completed; strict-cap holds expire on it
	holds   []hold

	tally  fault.Tally
	fenced atomic.Uint64

	// ingest merges heartbeat-carried node statistic deltas (see ingest.go).
	ingest fleetIngest
}

// NewCoordinator builds a coordinator over the given node transports. Nodes
// start healthy with a zero grant; the first control epoch raises them.
func NewCoordinator(opts Options, transports ...Transport) (*Coordinator, error) {
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("fleet: coordinator needs a positive cluster budget")
	}
	if opts.Floor <= 0 {
		return nil, fmt.Errorf("fleet: coordinator needs a positive per-node floor")
	}
	if len(transports) == 0 {
		return nil, fmt.Errorf("fleet: coordinator needs at least one node")
	}
	opts = opts.withDefaults()
	if cmp.Watts(len(transports))*opts.Floor > opts.Budget+1e-9 {
		return nil, fmt.Errorf("fleet: %d floors of %.2fW exceed the %.2fW cluster budget",
			len(transports), float64(opts.Floor), float64(opts.Budget))
	}
	c := &Coordinator{opts: opts, ingest: fleetIngest{hist: stats.NewBinHistogram()}}
	names := make(map[string]bool)
	for _, t := range transports {
		name := t.Name()
		if name == "" {
			return nil, fmt.Errorf("fleet: node transport with empty name")
		}
		if names[name] {
			return nil, fmt.Errorf("fleet: duplicate node name %q", name)
		}
		names[name] = true
		c.nodes = append(c.nodes, &nodeState{c: c, t: t, name: name})
	}
	return c, nil
}

// now supplies audit timestamps.
func (c *Coordinator) now() time.Duration {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return 0
}

// Adjust runs one fleet control epoch: heartbeat every node, reclaim watts
// stranded on freshly quarantined nodes, then hand the policy (normally
// the NewRebalance planner) the cluster view to redistribute. It implements
// controlplane.Adjuster; with every node quarantined it returns
// fault.ErrNoHealthyNodes, which the loop counts as a degraded epoch and
// keeps ticking through.
func (c *Coordinator) Adjust(policy core.Policy) (core.BoostOutcome, error) {
	c.adjustMu.Lock()
	defer c.adjustMu.Unlock()

	// Advance the control epoch and release strict-cap holds that have aged
	// out: a node silent this long has self-fenced, so its watts are free.
	c.mu.Lock()
	c.adjusts++
	c.expireHoldsLocked()
	c.mu.Unlock()

	// Heartbeat pass, stable order. Quarantined nodes are probed for
	// re-admission instead.
	for _, n := range c.nodes {
		c.mu.Lock()
		quarantined := n.health.State().Quarantined()
		c.mu.Unlock()
		if quarantined {
			c.tryReadmit(n)
			continue
		}
		rep, err := n.t.Report()
		if err != nil {
			c.noteFailure(n, err)
			continue
		}
		c.mu.Lock()
		fencedRep := rep.Epoch != n.epoch
		granted := n.granted
		if !fencedRep {
			n.metric = rep.Metric
			n.breakdown = rep.Stages
			if n.cooldown > 0 {
				n.cooldown--
			}
		}
		c.mu.Unlock()
		if fencedRep {
			// The node answered but echoes a grant this ledger did not issue
			// last — a restarted node, or a grant lost in flight. The report
			// proves liveness; its metric is NOT ingested. Resynchronise by
			// re-pushing the ledger's grant at a fresh epoch.
			c.noteFenced(n, rep.Epoch)
			_ = n.SetBudget(granted)
			continue
		}
		c.foldIngest(n.name, rep.Ingest)
		c.noteSuccess(n)
	}

	// Reclaim pass: watts stranded on quarantined nodes return to the pool
	// in the same epoch that quarantined them, and the global epoch is
	// bumped past the node's last grant so every report it produced before
	// the reclamation is fenced off.
	for _, n := range c.nodes {
		c.mu.Lock()
		if n.health.State() != fault.Down || n.granted == 0 {
			c.mu.Unlock()
			continue
		}
		w := n.granted
		n.granted = 0
		c.epoch++
		n.epoch = c.epoch
		detail := "quarantine reclaim"
		if c.opts.StrictCap {
			// The node may still be drawing these watts; hold them out of the
			// pool until it has had time to self-fence.
			c.holds = append(c.holds, hold{node: n.name, watts: w, until: c.adjusts + uint64(c.opts.HoldEpochs)})
			detail = "quarantine reclaim (held)"
		}
		c.mu.Unlock()
		if c.opts.Audit.Enabled() {
			c.opts.Audit.Record(telemetry.Event{
				Time: c.now(), Kind: telemetry.EventSetBudget, Node: n.name,
				PrevWatts: float64(w), GrantedWatts: 0, Detail: detail,
			})
		}
	}

	healthy := 0
	c.mu.Lock()
	for _, n := range c.nodes {
		if !n.health.State().Quarantined() {
			healthy++
		}
	}
	c.mu.Unlock()
	if healthy == 0 {
		return core.BoostOutcome{}, fault.ErrNoHealthyNodes
	}
	return policy.Adjust(c, nil), nil
}

// tryReadmit probes a quarantined node and, when it answers, re-admits it
// budget-safely through one plan: the arbiter.PlanReclaim cuts that shave
// the survivors — richest first, never below the floor — until the floor
// grant fits the headroom, then the returning node's floor grant. The
// executor applies it in that order, so a grant failing anywhere rolls the
// cuts back and the node stays Recovering for the next epoch. A node that
// answers with a pre-reclamation epoch is counted as fenced; the probe
// proves liveness, nothing more.
func (c *Coordinator) tryReadmit(n *nodeState) {
	rep, err := n.t.Report()
	if err != nil {
		return // still quarantined; the error that quarantined it stands
	}
	c.mu.Lock()
	stale := rep.Epoch != n.epoch
	c.mu.Unlock()
	if stale {
		c.noteFenced(n, rep.Epoch)
	}
	c.setHealth(n, fault.Recovering)

	floor := c.opts.Floor
	c.mu.Lock()
	plan, short := arbiter.PlanReclaim(ledger{c}, floor, c.opts.Budget-c.drawLocked(), floor)
	from := n.granted
	c.mu.Unlock()
	if short > 0 {
		return // no room this epoch; stay Recovering, retry next epoch
	}
	plan.Actions = append(plan.Actions, &core.SetBudgetAction{Node: n, From: from, To: floor, Reason: core.ReasonReadmit})
	if res := core.ApplyPlan(c.opts.Audit, c, c.Draw(), plan); res.Err != nil {
		return // a failed grant fed its node's health machine; the cuts are undone
	}
	c.mu.Lock()
	n.cooldown = c.opts.CooldownEpochs
	if !stale {
		n.metric = rep.Metric
	}
	// The node just accepted a fresh fenced grant, so it stopped drawing
	// whatever it held before quarantine: its strict-cap hold can go.
	c.releaseHoldsLocked(n.name)
	c.mu.Unlock()
	c.setHealth(n, fault.Healthy)
}

// ledger is the coordinator's grant ledger as arbiter.PlanReclaim scans it,
// in place; the caller holds c.mu. Quarantined nodes — the returnee among
// them — do not donate.
type ledger struct{ c *Coordinator }

func (l ledger) Len() int { return len(l.c.nodes) }

func (l ledger) Entry(i int) (core.NodeControl, cmp.Watts, bool) {
	n := l.c.nodes[i]
	return n, n.granted, !n.health.State().Quarantined()
}

// drawLocked sums the ledger plus any strict-cap holds; caller holds c.mu.
// Counting held watts as draw is what keeps them out of the planner's pool
// (avail = Budget − (Draw − healthyGranted)) without the planner knowing
// holds exist.
func (c *Coordinator) drawLocked() cmp.Watts {
	var sum cmp.Watts
	for _, n := range c.nodes {
		sum += n.granted
	}
	return sum + c.heldLocked()
}

// heldLocked sums live strict-cap holds; caller holds c.mu.
func (c *Coordinator) heldLocked() cmp.Watts {
	var sum cmp.Watts
	for _, h := range c.holds {
		sum += h.watts
	}
	return sum
}

// expireHoldsLocked drops holds whose epoch has passed; caller holds c.mu.
func (c *Coordinator) expireHoldsLocked() {
	kept := c.holds[:0]
	for _, h := range c.holds {
		if h.until > c.adjusts {
			kept = append(kept, h)
		}
	}
	c.holds = kept
}

// releaseHoldsLocked frees every hold on one node — called when the node is
// re-admitted, which proves it accepted a fenced grant and no longer draws
// the reclaimed watts. Caller holds c.mu.
func (c *Coordinator) releaseHoldsLocked(name string) {
	kept := c.holds[:0]
	for _, h := range c.holds {
		if h.node != name {
			kept = append(kept, h)
		}
	}
	c.holds = kept
}

// noteFailure feeds one failed exchange into the node's health machine.
func (c *Coordinator) noteFailure(n *nodeState, err error) {
	c.mu.Lock()
	tr := n.health.Fail(err, c.opts.SuspectAfter, false)
	c.mu.Unlock()
	c.book(n, tr)
}

// noteSuccess feeds one answered exchange into the node's health machine.
func (c *Coordinator) noteSuccess(n *nodeState) {
	c.mu.Lock()
	tr := n.health.Succeed()
	c.mu.Unlock()
	c.book(n, tr)
}

// setHealth forces a re-admission step.
func (c *Coordinator) setHealth(n *nodeState, to fault.Health) {
	c.mu.Lock()
	tr := n.health.Set(to)
	c.mu.Unlock()
	c.book(n, tr)
}

// book counts one transition, whether or not auditing is enabled, then
// audits it.
func (c *Coordinator) book(n *nodeState, tr fault.Transition) {
	c.tally.Book(tr)
	if tr.From == tr.To || !c.opts.Audit.Enabled() {
		return
	}
	var kind telemetry.EventKind
	switch tr.To {
	case fault.Suspect:
		kind = telemetry.EventNodeSuspect
	case fault.Down:
		kind = telemetry.EventNodeQuarantine
	case fault.Recovering:
		kind = telemetry.EventNodeRecovering
	case fault.Healthy:
		if !tr.Readmitted() {
			return // suspect cleared; not worth an event
		}
		kind = telemetry.EventNodeReadmit
	}
	c.mu.Lock()
	granted, err := n.granted, n.health.Err()
	c.mu.Unlock()
	e := telemetry.Event{
		Time: c.now(), Kind: kind, Node: n.name,
		GrantedWatts: float64(granted),
		Detail:       fmt.Sprintf("%s→%s", tr.From, tr.To),
	}
	if err != nil {
		e.Err = err.Error()
	}
	c.opts.Audit.Record(e)
}

// noteFenced counts one stale-epoch report or probe. What answered may be a
// restarted process numbering its deltas from 1, so the node's sequence
// tracking is re-armed.
func (c *Coordinator) noteFenced(n *nodeState, repEpoch uint64) {
	c.fenced.Add(1)
	c.ingest.recv.Rearm(n.name)
	if !c.opts.Audit.Enabled() {
		return
	}
	c.mu.Lock()
	want := n.epoch
	c.mu.Unlock()
	c.opts.Audit.Record(telemetry.Event{
		Time: c.now(), Kind: telemetry.EventNodeFenced, Node: n.name,
		Detail: fmt.Sprintf("report epoch %d, ledger epoch %d", repEpoch, want),
	})
}

// ---- core.System (the cluster as a power domain) ----

// Now implements core.System.
func (c *Coordinator) Now() time.Duration { return c.now() }

// PowerModel implements core.System. The fleet layer never converts watts
// to levels; the default model only anchors FreeCores.
func (c *Coordinator) PowerModel() cmp.PowerModel { return cmp.DefaultModel() }

// Budget implements core.System: the cluster cap.
func (c *Coordinator) Budget() cmp.Watts { return c.opts.Budget }

// Draw implements core.System: the sum of granted node budgets — including
// quarantined nodes that have not been reclaimed yet, since a partitioned
// node may still be consuming its grant, plus strict-cap holds on watts
// reclaimed but not yet safe to re-grant.
func (c *Coordinator) Draw() cmp.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drawLocked()
}

// Headroom implements core.System.
func (c *Coordinator) Headroom() cmp.Watts { return c.opts.Budget - c.Draw() }

// FreeCores implements core.System (nominal: headroom in minimum-power
// cores; the fleet planner never clones).
func (c *Coordinator) FreeCores() int {
	min := c.PowerModel().MinPower()
	if min <= 0 {
		return 0
	}
	return int(c.Headroom() / min)
}

// Stages implements core.System; the fleet has no stage view.
func (c *Coordinator) Stages() []core.StageControl { return nil }

// Quarantined implements core.System; node quarantine is exposed through
// Healths, not the stage view.
func (c *Coordinator) Quarantined() []core.StageControl { return nil }

// ---- arbiter.View (the planner's state) ----

// Members implements arbiter.View: the healthy nodes as budget-arbitration
// members with no QoS target and unit fairness weight — cluster→node is the
// same redistribution shape as chip→app, one level up.
func (c *Coordinator) Members() []arbiter.Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []arbiter.Member
	for _, n := range c.nodes {
		if n.health.State().Quarantined() {
			continue
		}
		out = append(out, arbiter.Member{
			Control:   n,
			Granted:   n.granted,
			Metric:    n.metric,
			Breakdown: n.breakdown,
			Pinned:    n.cooldown > 0,
		})
	}
	return out
}

// Floor implements arbiter.View.
func (c *Coordinator) Floor() cmp.Watts { return c.opts.Floor }

// Hysteresis implements arbiter.View.
func (c *Coordinator) Hysteresis() cmp.Watts { return c.opts.Hysteresis }

// ---- introspection ----

// Healths snapshots every node's health state.
func (c *Coordinator) Healths() map[string]fault.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]fault.Health, len(c.nodes))
	for _, n := range c.nodes {
		out[n.name] = n.health.State()
	}
	return out
}

// Granted snapshots every node's current grant.
func (c *Coordinator) Granted() map[string]cmp.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]cmp.Watts, len(c.nodes))
	for _, n := range c.nodes {
		out[n.name] = n.granted
	}
	return out
}

// HeldWatts returns the watts under strict-cap quarantine holds: reclaimed
// from quarantined nodes but not yet returned to the distributable pool.
func (c *Coordinator) HeldWatts() cmp.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heldLocked()
}

// Epoch returns the global fencing epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Counts returns the lifetime quarantine, re-admission and fencing tallies.
func (c *Coordinator) Counts() (quarantines, readmissions, fenced uint64) {
	quarantines, readmissions = c.tally.Counts()
	return quarantines, readmissions, c.fenced.Load()
}

// RegisterMetrics exposes the fleet on a telemetry registry: cluster budget
// accounting, quarantine counters, and per-node health/grant gauges (the
// registry has no labels, so per-node series are name suffixes).
func (c *Coordinator) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("powerchief_fleet_budget_watts",
		"Cluster-wide power budget owned by the fleet coordinator.",
		func() float64 { return float64(c.opts.Budget) })
	reg.GaugeFunc("powerchief_fleet_granted_watts",
		"Sum of granted node budgets (the fleet-level draw).",
		func() float64 { return float64(c.Draw()) })
	reg.GaugeFunc("powerchief_fleet_nodes",
		"Nodes in the coordinator's ledger.",
		func() float64 { return float64(len(c.nodes)) })
	reg.GaugeFunc("powerchief_fleet_nodes_quarantined",
		"Nodes currently quarantined (down or recovering).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			q := 0
			for _, n := range c.nodes {
				if n.health.State().Quarantined() {
					q++
				}
			}
			return float64(q)
		})
	reg.GaugeFunc("powerchief_fleet_held_watts",
		"Watts under strict-cap quarantine holds, kept out of the pool.",
		func() float64 { return float64(c.HeldWatts()) })
	reg.CounterFunc("powerchief_fleet_quarantines_total",
		"Node transitions into quarantine over the coordinator's lifetime.",
		func() float64 { q, _ := c.tally.Counts(); return float64(q) })
	reg.CounterFunc("powerchief_fleet_readmissions_total",
		"Budget-safe node re-admissions over the coordinator's lifetime.",
		func() float64 { _, r := c.tally.Counts(); return float64(r) })
	reg.CounterFunc("powerchief_fleet_fenced_total",
		"Stale-epoch reports and probes rejected by fencing.",
		func() float64 { return float64(c.fenced.Load()) })
	for _, n := range c.nodes {
		n := n
		sn := telemetry.SanitizeName(n.name)
		reg.GaugeFunc("powerchief_fleet_node_health_"+sn,
			"Health state of one node (0 healthy, 1 suspect, 2 down, 3 recovering).",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(n.health.State())
			})
		reg.GaugeFunc("powerchief_fleet_node_granted_watts_"+sn,
			"Granted budget of one node.",
			func() float64 { return float64(n.Budget()) })
	}
}

// Interface conformance.
var (
	_ core.System      = (*Coordinator)(nil)
	_ arbiter.View     = (*Coordinator)(nil)
	_ core.NodeControl = (*nodeState)(nil)
)
