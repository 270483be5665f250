package fleet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/fault"
	"powerchief/internal/rpc"
	"powerchief/internal/stats"
	"powerchief/internal/telemetry"
)

// Backend is the node-local system a NodeService fronts: whatever runs the
// node's pipeline and can report its bottleneck metric and re-set its local
// power budget. live.Cluster's SetBudget satisfies the actuation half;
// SynthBackend is the self-contained implementation `powerchief node` serves.
type Backend interface {
	// Metric returns the node's bottleneck metric (Equation 1 of its slowest
	// stage).
	Metric() time.Duration
	// Draw returns the node's current power draw.
	Draw() cmp.Watts
	// Budget returns the node's current local budget.
	Budget() cmp.Watts
	// SetBudget re-grants the node's local budget, shedding load first if
	// the new budget is below the current draw.
	SetBudget(cmp.Watts) error
}

// StageReporter is the optional Backend extension for nodes that can break
// their bottleneck metric down per stage. A NodeService forwards the
// breakdown in its heartbeat Reports, letting the coordinator's arbiter
// weight by marginal benefit; scalar-only backends simply never populate the
// field.
type StageReporter interface {
	// StageMetrics returns the per-stage Equation 1 expected delays behind
	// Metric, bottleneck included.
	StageMetrics() []arbiter.StageMetric
}

// NodeService serves the fleet wire protocol for one node. It enforces the
// grant half of epoch fencing: a grant whose epoch is behind the last
// accepted one comes from a superseded coordinator term and is rejected with
// fault.ErrStaleEpoch (which round-trips over the wire as a sentinel).
type NodeService struct {
	name    string
	backend Backend
	srv     *rpc.Server

	mu     sync.Mutex
	epoch  uint64
	grants uint64

	// ingest accumulates node-local completion statistics for delta-batched
	// shipping on the heartbeat; nil until EnableIngest. start anchors the
	// accumulator's virtual clock.
	ingest *stats.DeltaAccumulator
	start  time.Time
}

// NewNodeService builds a service for one named node.
func NewNodeService(name string, backend Backend) (*NodeService, error) {
	if name == "" {
		return nil, fmt.Errorf("fleet: node service needs a name")
	}
	if backend == nil {
		return nil, fmt.Errorf("fleet: node service needs a backend")
	}
	s := &NodeService{name: name, backend: backend, srv: rpc.NewServer()}
	rpc.HandleFunc(s.srv, MethodNodeInfo, func(struct{}) (NodeInfo, error) {
		return NodeInfo{Node: s.name}, nil
	})
	rpc.HandleFunc(s.srv, MethodNodeReport, func(struct{}) (Report, error) {
		s.mu.Lock()
		epoch := s.epoch
		acc := s.ingest
		start := s.start
		s.mu.Unlock()
		rep := Report{
			Node:   s.name,
			Epoch:  epoch,
			Metric: s.backend.Metric(),
			Draw:   s.backend.Draw(),
			Budget: s.backend.Budget(),
		}
		if sr, ok := s.backend.(StageReporter); ok {
			rep.Stages = sr.StageMetrics()
		}
		if acc != nil {
			// The heartbeat is the delta transport: ship everything folded
			// since the last report. A report lost in flight loses at most
			// one heartbeat window of statistics — the coordinator's
			// sequence-gap counter records it.
			rep.Ingest = acc.Flush(time.Since(start))
		}
		return rep, nil
	})
	rpc.HandleFunc(s.srv, MethodNodeGrant, func(g Grant) (struct{}, error) {
		s.mu.Lock()
		if g.Epoch < s.epoch {
			last := s.epoch
			s.mu.Unlock()
			return struct{}{}, fmt.Errorf("fleet: grant epoch %d behind accepted %d: %w", g.Epoch, last, fault.ErrStaleEpoch)
		}
		s.mu.Unlock()
		if err := s.backend.SetBudget(g.Watts); err != nil {
			return struct{}{}, err
		}
		s.mu.Lock()
		if g.Epoch > s.epoch {
			s.epoch = g.Epoch
		}
		s.grants++
		s.mu.Unlock()
		return struct{}{}, nil
	})
	return s, nil
}

// Listen starts serving on addr and returns the bound address.
func (s *NodeService) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// EnableIngest arms delta-batched statistics ingest: node-local completions
// folded through Observe/ObserveRecord are batched and shipped on the next
// heartbeat report (zeros apply the stats defaults). The batch threshold
// only bounds memory here — the flush cadence is the heartbeat.
func (s *NodeService) EnableIngest(batch int, interval time.Duration) {
	s.mu.Lock()
	s.ingest = stats.NewDeltaAccumulator(batch, interval)
	s.start = time.Now()
	s.mu.Unlock()
}

// Observe folds one node-local completed query's end-to-end latency into
// the pending delta. A no-op until EnableIngest.
func (s *NodeService) Observe(latency time.Duration) {
	s.mu.Lock()
	acc := s.ingest
	start := s.start
	s.mu.Unlock()
	if acc != nil {
		acc.FoldQuery(time.Since(start), latency)
	}
}

// ObserveRecord folds one per-instance latency record into the pending
// delta. A no-op until EnableIngest.
func (s *NodeService) ObserveRecord(instance, stage string, queuing, serving time.Duration) {
	s.mu.Lock()
	acc := s.ingest
	start := s.start
	s.mu.Unlock()
	if acc != nil {
		acc.FoldRecord(time.Since(start), instance, stage, queuing, serving)
	}
}

// IngestPending reports the unflushed query count (telemetry).
func (s *NodeService) IngestPending() uint64 {
	s.mu.Lock()
	acc := s.ingest
	s.mu.Unlock()
	if acc == nil {
		return 0
	}
	q, _ := acc.Pending()
	return q
}

// Epoch returns the last accepted grant epoch.
func (s *NodeService) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Grants counts accepted grants.
func (s *NodeService) Grants() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grants
}

// RegisterMetrics exports the node's telemetry on reg: its granted budget
// and modelled draw, the fencing watermark, accepted grants and the
// completions folded but not yet shipped on a heartbeat.
func (s *NodeService) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("powerchief_node_budget_watts", "last granted budget", func() float64 { return float64(s.backend.Budget()) })
	reg.GaugeFunc("powerchief_node_draw_watts", "modelled local draw", func() float64 { return float64(s.backend.Draw()) })
	reg.GaugeFunc("powerchief_node_epoch", "last accepted grant epoch (fencing watermark)", func() float64 { return float64(s.Epoch()) })
	reg.CounterFunc("powerchief_node_grants_total", "grants accepted from the coordinator", func() float64 { return float64(s.Grants()) })
	reg.GaugeFunc("powerchief_node_ingest_pending_queries", "completions folded but not yet shipped on a heartbeat", func() float64 { return float64(s.IngestPending()) })
}

// Close stops the service.
func (s *NodeService) Close() error { return s.srv.Close() }

// SynthBackend is a deterministic synthetic node: a fixed work intensity
// whose bottleneck metric shrinks as the granted budget grows. It stands in
// for a full per-node pipeline in `powerchief node` and the chaos tests,
// keeping the fleet layer testable without spawning one live cluster per
// node.
type SynthBackend struct {
	mu     sync.Mutex
	load   float64
	budget cmp.Watts
}

// NewSynthBackend builds a synthetic node with the given work intensity
// (load ≥ 0; 1.0 is one saturated max-level core's worth of work) and
// initial local budget.
func NewSynthBackend(load float64, budget cmp.Watts) *SynthBackend {
	if load < 0 {
		load = 0
	}
	if budget < 0 {
		budget = 0
	}
	return &SynthBackend{load: load, budget: budget}
}

// Metric implements Backend: expected bottleneck delay proportional to load
// over watts — more budget, faster node.
func (b *SynthBackend) Metric() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return synthMetric(b.load, b.budget)
}

// synthMetric is the shared deterministic metric model (SimNode uses the
// same one so DES and RPC fleets weight nodes identically).
func synthMetric(load float64, budget cmp.Watts) time.Duration {
	w := float64(budget)
	if w < 1 {
		w = 1
	}
	return time.Duration(load / w * float64(time.Second))
}

// synthStages is the deterministic per-stage breakdown behind synthMetric: a
// fast ingress stage and the compute bottleneck. SimNode and SynthBackend
// share it so DES and RPC fleets forward identical breakdowns.
func synthStages(load float64, budget cmp.Watts) []arbiter.StageMetric {
	m := synthMetric(load, budget)
	return []arbiter.StageMetric{
		{Stage: "ingress", Metric: m * 2 / 5},
		{Stage: "compute", Metric: m},
	}
}

// StageMetrics implements StageReporter.
func (b *SynthBackend) StageMetrics() []arbiter.StageMetric {
	b.mu.Lock()
	defer b.mu.Unlock()
	return synthStages(b.load, b.budget)
}

// Draw implements Backend: the node consumes what its load needs, capped by
// the granted budget.
func (b *SynthBackend) Draw() cmp.Watts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return cmp.Watts(math.Min(float64(b.budget), b.load*10))
}

// Budget implements Backend.
func (b *SynthBackend) Budget() cmp.Watts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.budget
}

// SetBudget implements Backend. A synthetic node can always shed to any
// non-negative budget.
func (b *SynthBackend) SetBudget(w cmp.Watts) error {
	if w < 0 {
		return fmt.Errorf("fleet: negative budget %.2fW", float64(w))
	}
	b.mu.Lock()
	b.budget = w
	b.mu.Unlock()
	return nil
}
