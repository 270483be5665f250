package dist

import (
	"fmt"
	"sync"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/live"
	"powerchief/internal/query"
	"powerchief/internal/rpc"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
)

// StageOptions configures one stage service process.
type StageOptions struct {
	// Name is the stage name, e.g. "QA".
	Name string
	// Kind is the stage organization.
	Kind stage.Kind
	// MemBound parameterizes the service's frequency profile.
	MemBound float64
	// Instances is the initial worker count.
	Instances int
	// Level is the initial frequency level.
	Level cmp.Level
	// Cores bounds how many instances the service can host (default 16).
	Cores int
	// TimeScale compresses simulated work (default 1).
	TimeScale float64

	// IngestMaxBatch and IngestMaxInterval, when positive, clamp the flush
	// sizes a center may set via MethodIngest — the operator's local bound
	// on pending-delta memory and statistic staleness (cmd/stagesvc's
	// -ingest.batch / -ingest.interval flags). Zero accepts whatever the
	// center asks for.
	IngestMaxBatch    int
	IngestMaxInterval time.Duration
}

// StageService hosts one stage's instance pool behind the RPC surface. The
// Command Center owns the global power budget; the service itself runs its
// local chip unconstrained (budget = all cores at maximum) and relies on the
// center to authorize every raise.
type StageService struct {
	opts    StageOptions
	cluster *live.Cluster
	server  *rpc.Server

	// ingest folds every completion's records locally; its batches are the
	// only way statistics leave the process. It starts at the stats default
	// sizes — what a restarted process flushes at until a center's
	// MethodIngest resizes it.
	ingest *stats.DeltaAccumulator

	mu      sync.Mutex
	nextQID uint64
	waiters map[*query.Query]func()
}

// NewStageService builds the pool and registers the RPC handlers.
func NewStageService(opts StageOptions) (*StageService, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("dist: stage service needs a name")
	}
	if opts.Instances < 1 {
		return nil, fmt.Errorf("dist: stage service needs at least one instance")
	}
	if opts.Cores == 0 {
		opts.Cores = 16
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1
	}
	model := cmp.DefaultModel()
	cluster, err := live.NewCluster(live.Options{
		Cores:     opts.Cores,
		Model:     model,
		Budget:    cmp.Watts(opts.Cores) * model.MaxPower(),
		TimeScale: opts.TimeScale,
	}, []live.StageSpec{{
		Name:      opts.Name,
		Kind:      opts.Kind,
		Profile:   cmp.NewRooflineProfile(opts.MemBound),
		Instances: opts.Instances,
		Level:     opts.Level,
	}})
	if err != nil {
		return nil, err
	}
	s := &StageService{
		opts:    opts,
		cluster: cluster,
		server:  rpc.NewServer(),
		ingest:  stats.NewDeltaAccumulator(0, 0),
		waiters: make(map[*query.Query]func()),
	}
	cluster.OnComplete(func(q *query.Query) {
		s.mu.Lock()
		fn := s.waiters[q]
		delete(s.waiters, q)
		s.mu.Unlock()
		if fn != nil {
			fn()
		}
	})
	s.register()
	return s, nil
}

func (s *StageService) stageControl() core.StageControl {
	return s.cluster.Stages()[0]
}

func (s *StageService) findInstance(name string) (core.Instance, error) {
	for _, in := range s.stageControl().Instances() {
		if in.Name() == name {
			return in, nil
		}
	}
	return nil, fmt.Errorf("dist: unknown instance %q", name)
}

func (s *StageService) register() {
	rpc.HandleFunc(s.server, MethodProcess, func(a ProcessArgs) (ProcessReply, error) {
		if len(a.Work) == 0 {
			return ProcessReply{}, fmt.Errorf("dist: query %d carries no work", a.QueryID)
		}
		q := query.New(0, s.cluster.Now(), [][]time.Duration{a.Work})
		done := make(chan struct{})
		s.mu.Lock()
		s.nextQID++
		q.ID = query.ID(s.nextQID)
		s.waiters[q] = func() { close(done) }
		s.mu.Unlock()
		if err := s.cluster.Submit(q); err != nil {
			s.mu.Lock()
			delete(s.waiters, q)
			s.mu.Unlock()
			return ProcessReply{}, err
		}
		<-done
		// Fold the records locally and piggyback the batch when this
		// completion tripped a flush. The center measures end-to-end latency
		// itself, so only per-instance queuing/serving digests travel.
		now := s.cluster.Now()
		for i := range q.Records {
			rec := &q.Records[i]
			s.ingest.FoldRecord(now, rec.Instance, rec.Stage, rec.Queuing(), rec.Serving())
		}
		s.ingest.FoldCompletion(now)
		reply := ProcessReply{Delta: s.ingest.FlushIfDue(now)}
		if a.Trace {
			reply.Records = make([]RecordWire, 0, len(q.Records))
			for _, rec := range q.Records {
				reply.Records = append(reply.Records, fromRecord(rec))
			}
		}
		return reply, nil
	})

	rpc.HandleFunc(s.server, MethodIngest, func(a IngestArgs) (struct{}, error) {
		if a.Batch < 0 || a.IntervalNS < 0 {
			return struct{}{}, fmt.Errorf("dist: negative ingest sizes (batch %d, interval %dns)", a.Batch, a.IntervalNS)
		}
		batch, interval := a.Batch, time.Duration(a.IntervalNS)
		if batch == 0 {
			batch = stats.DefaultDeltaBatch
		}
		if interval == 0 {
			interval = stats.DefaultDeltaInterval
		}
		if s.opts.IngestMaxBatch > 0 {
			batch = min(batch, s.opts.IngestMaxBatch)
		}
		if s.opts.IngestMaxInterval > 0 {
			interval = min(interval, s.opts.IngestMaxInterval)
		}
		s.ingest.Resize(batch, interval)
		return struct{}{}, nil
	})

	rpc.HandleFunc(s.server, MethodStats, func(struct{}) (StatsReply, error) {
		var out StatsReply
		for _, in := range s.stageControl().Instances() {
			out.Instances = append(out.Instances, InstanceStats{
				Name:        in.Name(),
				QueueLen:    in.QueueLen(),
				Level:       in.Level(),
				Utilization: in.Utilization(),
			})
		}
		// Staleness backstop: every control-interval refresh drains the
		// pending batch, so a trickle of traffic cannot hold statistics back
		// past the control interval.
		out.Delta = s.ingest.Flush(s.cluster.Now())
		return out, nil
	})

	rpc.HandleFunc(s.server, MethodSetLevel, func(a SetLevelArgs) (struct{}, error) {
		in, err := s.findInstance(a.Instance)
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, in.SetLevel(a.Level)
	})

	rpc.HandleFunc(s.server, MethodClone, func(a CloneArgs) (CloneReply, error) {
		in, err := s.findInstance(a.Instance)
		if err != nil {
			return CloneReply{}, err
		}
		clone, err := s.stageControl().Clone(in)
		if err != nil {
			return CloneReply{}, err
		}
		return CloneReply{Name: clone.Name(), Level: clone.Level()}, nil
	})

	rpc.HandleFunc(s.server, MethodWithdraw, func(a WithdrawArgs) (struct{}, error) {
		in, err := s.findInstance(a.Instance)
		if err != nil {
			return struct{}{}, err
		}
		var target core.Instance
		if a.Target != "" {
			if target, err = s.findInstance(a.Target); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, s.stageControl().Withdraw(in, target)
	})

	rpc.HandleFunc(s.server, MethodInfo, func(struct{}) (InfoReply, error) {
		return InfoReply{
			Name:     s.opts.Name,
			CanScale: s.opts.Kind == stage.Pipeline,
			MemBound: s.opts.MemBound,
		}, nil
	})
}

// Cluster exposes the service's underlying live engine, so hosts can hang
// telemetry off it — metric gauges over Draw/Counts, a local query tracer
// via OnComplete.
func (s *StageService) Cluster() *live.Cluster { return s.cluster }

// IngestStats reports the accumulator's state for telemetry: the lifetime
// flush count and the completions folded but not yet flushed.
func (s *StageService) IngestStats() (flushes, pending uint64) {
	pending, _ = s.ingest.Pending()
	return s.ingest.Flushes(), pending
}

// Listen starts serving on addr and returns the bound address.
func (s *StageService) Listen(addr string) (string, error) {
	return s.server.Listen(addr)
}

// Close stops the RPC server and the worker pool.
func (s *StageService) Close() {
	s.server.Close()
	s.cluster.Close()
}
