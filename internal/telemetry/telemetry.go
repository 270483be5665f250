package telemetry

import (
	"sync"
	"time"
)

// EventKind names one class of Command Center decision.
type EventKind string

// Decision event kinds. The boost/identify/recycle/withdraw kinds are
// emitted by the control policies (internal/core); the stage-* kinds by the
// distributed runtime's health machine (internal/dist).
const (
	// EventIdentify records one bottleneck identification: the instance the
	// latency metric ranked slowest, with the Equation 1 inputs (L, q̄, s̄).
	EventIdentify EventKind = "identify"
	// EventBoostFreq records a frequency boost (§5.2).
	EventBoostFreq EventKind = "boost-freq"
	// EventBoostInst records an instance boost (§5.1).
	EventBoostInst EventKind = "boost-inst"
	// EventBoostNone records an interval where the engine chose no action.
	EventBoostNone EventKind = "boost-none"
	// EventRecycle records one power-recycling pass (Algorithm 2) with the
	// donor instances stepped down and the watts each freed.
	EventRecycle EventKind = "recycle"
	// EventWithdraw records an instance withdraw (§6.2).
	EventWithdraw EventKind = "withdraw"
	// EventRelaunch records the saver launching an instance back during QoS
	// recovery.
	EventRelaunch EventKind = "relaunch"
	// EventDeboost records the power saver stepping a fast instance down.
	EventDeboost EventKind = "deboost"
	// EventPlanRollback records the executor undoing the applied prefix of
	// an action plan after a mid-plan actuation failure.
	EventPlanRollback EventKind = "plan-rollback"
	// EventStageSuspect records a stage's first health failure.
	EventStageSuspect EventKind = "stage-suspect"
	// EventStageQuarantine records a stage quarantined by the health machine,
	// its watts reclaimed into the survivors' headroom.
	EventStageQuarantine EventKind = "stage-quarantine"
	// EventStageRecovering records a down stage answering a probe again.
	EventStageRecovering EventKind = "stage-recovering"
	// EventStageReadmit records a stage re-admitted with its budget share
	// restored.
	EventStageReadmit EventKind = "stage-readmit"
	// EventSetBudget records a fleet coordinator re-granting one node's power
	// budget (a SetBudgetAction applied by the executor).
	EventSetBudget EventKind = "set-budget"
	// EventNodeSuspect records a fleet node's first heartbeat failure.
	EventNodeSuspect EventKind = "node-suspect"
	// EventNodeQuarantine records a node quarantined by the fleet health
	// machine, its granted watts reclaimed into the cluster pool.
	EventNodeQuarantine EventKind = "node-quarantine"
	// EventNodeRecovering records a down node answering a probe again.
	EventNodeRecovering EventKind = "node-recovering"
	// EventNodeReadmit records a node re-admitted at the budget floor after a
	// successful fenced grant.
	EventNodeReadmit EventKind = "node-readmit"
	// EventNodeFenced records a node report rejected by epoch fencing (a
	// stale, pre-quarantine epoch after the coordinator moved on).
	EventNodeFenced EventKind = "node-fenced"
)

// Donor is one instance that gave up power during a recycling pass.
type Donor struct {
	Instance   string  `json:"instance"`
	FromLevel  int     `json:"from_level"`
	ToLevel    int     `json:"to_level"`
	FreedWatts float64 `json:"freed_watts"`
}

// Event is one structured Command Center decision. Fields beyond Seq, Time
// and Kind are populated per kind; durations are in the emitting engine's
// clock (virtual time for the simulator, wall time since start for the live
// and distributed runtimes).
type Event struct {
	// Seq is the log-assigned sequence number, strictly increasing across
	// the log's lifetime (it keeps counting when the ring drops old events).
	Seq uint64 `json:"seq"`
	// Time is the engine time the decision was taken.
	Time time.Duration `json:"time"`
	// Kind classifies the decision.
	Kind EventKind `json:"kind"`
	// Tick is the seq of the tick whose core.DecisionRecord the event
	// renders; an event without one takes the last tick the log saw.
	Tick int `json:"tick,omitempty"`

	// Stage and Instance name the decision's subject (the bottleneck for
	// identify/boost, the victim for withdraw, the stage for stage-* kinds).
	Stage    string `json:"stage,omitempty"`
	Instance string `json:"instance,omitempty"`
	// Node names the fleet node for set-budget and node-* kinds.
	Node string `json:"node,omitempty"`

	// Bottleneck identification: the Equation 1 inputs and result.
	QueueLen int           `json:"queue_len,omitempty"` // L: realtime queue length
	Queuing  time.Duration `json:"queuing,omitempty"`   // q̄: windowed mean queuing time
	Serving  time.Duration `json:"serving,omitempty"`   // s̄: windowed mean serving time
	Metric   time.Duration `json:"metric,omitempty"`    // L·q̄ + s̄ (or the configured metric)
	Spread   time.Duration `json:"spread,omitempty"`    // bottleneck-to-fastest metric spread

	// Boosting decision: the Equation 2/3 estimates and the actuation.
	TInst       time.Duration `json:"t_inst,omitempty"` // Equation 2 estimate
	TFreq       time.Duration `json:"t_freq,omitempty"` // Equation 3 estimate
	OldLevel    int           `json:"old_level"`
	NewLevel    int           `json:"new_level"`
	NewInstance string        `json:"new_instance,omitempty"`

	// Power accounting at decision time.
	RecycledWatts  float64 `json:"recycled_watts,omitempty"`
	ReclaimedWatts float64 `json:"reclaimed_watts,omitempty"` // watts freed by a quarantine
	HeadroomWatts  float64 `json:"headroom_watts,omitempty"`
	GrantedWatts   float64 `json:"granted_watts,omitempty"` // node budget after a set-budget
	PrevWatts      float64 `json:"prev_watts,omitempty"`    // node budget before a set-budget

	// Donors lists the instances recycled from (EventRecycle).
	Donors []Donor `json:"donors,omitempty"`

	// Target names a withdraw's redirect instance.
	Target string `json:"target,omitempty"`
	// Detail carries free-form context (health-state names, band labels).
	Detail string `json:"detail,omitempty"`
	// Err carries the error behind a failure-driven transition.
	Err string `json:"err,omitempty"`
}

// AuditLog is a bounded, concurrency-safe ring of decision events. A nil
// *AuditLog is a valid disabled log: every method is a no-op (or zero
// value), so instrumentation sites need no branching beyond Enabled.
type AuditLog struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest retained event
	n       int // retained count
	seq     uint64
	tick    int // last tick seq recorded
	dropped uint64
}

// DefaultAuditCapacity bounds the log when the caller passes zero.
const DefaultAuditCapacity = 4096

// NewAuditLog creates a log retaining at most capacity events (0 applies
// DefaultAuditCapacity).
func NewAuditLog(capacity int) *AuditLog {
	if capacity <= 0 {
		capacity = DefaultAuditCapacity
	}
	return &AuditLog{ring: make([]Event, capacity)}
}

// Enabled reports whether the log records events. Instrumentation sites
// guard event construction with it so a disabled log costs one nil test.
func (a *AuditLog) Enabled() bool { return a != nil }

// Record stamps the event with the next sequence number — and, when it has
// no tick of its own, the last tick seen — and appends it, evicting the
// oldest event when the ring is full. No-op on a nil log.
func (a *AuditLog) Record(e Event) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.seq++
	e.Seq = a.seq
	if e.Tick == 0 {
		e.Tick = a.tick
	} else {
		a.tick = e.Tick
	}
	if a.n < len(a.ring) {
		a.ring[(a.start+a.n)%len(a.ring)] = e
		a.n++
	} else {
		a.ring[a.start] = e
		a.start = (a.start + 1) % len(a.ring)
		a.dropped++
	}
	a.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (a *AuditLog) Events() []Event {
	return a.Since(0)
}

// Since returns the retained events with Seq > seq, oldest first. Use the
// last seen Seq as a cursor to page through a live log.
func (a *AuditLog) Since(seq uint64) []Event {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Event, 0, a.n)
	for i := 0; i < a.n; i++ {
		e := a.ring[(a.start+i)%len(a.ring)]
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}

// LastSeq returns the sequence number of the newest event (0 when empty).
func (a *AuditLog) LastSeq() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// Dropped returns how many events the ring has evicted.
func (a *AuditLog) Dropped() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}
