package dist

import (
	"sync"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/rpc"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
)

// startIngestPipeline spins up a two-stage pipeline with delta-batched
// ingest negotiated at the given batch/interval.
func startIngestPipeline(t *testing.T, batch int, interval time.Duration) (*Center, []*StageService) {
	t.Helper()
	specs := []StageOptions{
		{Name: "ASR", Kind: stage.Pipeline, MemBound: 0.15, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale},
		{Name: "QA", Kind: stage.Pipeline, MemBound: 0.25, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale},
	}
	var svcs []*StageService
	var addrs []string
	for _, so := range specs {
		svc, err := NewStageService(so)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, svc)
		addrs = append(addrs, addr)
	}
	center, err := NewCenterOptions(100, 25*time.Second, addrs, CenterOptions{
		IngestBatch:    batch,
		IngestInterval: interval,
		ProbeInterval:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		center.Close()
		for _, s := range svcs {
			s.Close()
		}
	})
	return center, svcs
}

// TestDeltaIngestEndToEnd drives real queries through a delta-negotiated
// pipeline: no records travel on the wire, the batched deltas land in the
// aggregator, and the per-instance stats match what the queries did.
func TestDeltaIngestEndToEnd(t *testing.T) {
	const batch = 4
	center, svcs := startIngestPipeline(t, batch, time.Hour)
	if got := center.DeltaIngestStages(); got != 2 {
		t.Fatalf("DeltaIngestStages = %d, want 2", got)
	}
	for _, svc := range svcs {
		if enabled, _, _, _ := svc.IngestStats(); !enabled {
			t.Fatal("stage did not arm its accumulator")
		}
	}

	const n = 12 // three full batches per stage
	for i := 0; i < n; i++ {
		if _, err := center.Submit([][]time.Duration{
			{20 * time.Millisecond},
			{10 * time.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
	}

	deltas, deltaQueries, records, seqGaps := center.IngestCounts()
	if records != 0 {
		t.Fatalf("legacy records traveled on a delta-negotiated pipeline: %d", records)
	}
	if want := uint64(n / batch * 2); deltas != want {
		t.Fatalf("deltas folded = %d, want %d", deltas, want)
	}
	if deltaQueries != uint64(n*2) {
		t.Fatalf("delta queries = %d, want %d", deltaQueries, n*2)
	}
	if seqGaps != 0 {
		t.Fatalf("sequence gaps on a healthy pipeline: %d", seqGaps)
	}
	if s, ok := center.IngestStaleness(); !ok || s < 0 {
		t.Fatalf("staleness = (%v, %v), want a fresh reading", s, ok)
	}

	// The delta-fed aggregator serves Eq. 2/3 inputs for every instance.
	for _, inst := range []string{"ASR_1", "QA_1"} {
		_, s, ok := center.Aggregator().InstStats(inst)
		if !ok || s <= 0 {
			t.Fatalf("InstStats(%q) = (%v, %v): delta fold lost the serving time", inst, s, ok)
		}
	}
	// The center still counts every completion itself — batched stats must
	// not double-count queries.
	if got := center.Aggregator().Ingested(); got != n {
		t.Fatalf("aggregator ingested %d queries, want %d", got, n)
	}
}

// TestDeltaIngestStatsRefreshDrainsPending is the staleness backstop: a
// partial batch (below the count threshold, interval not yet reached) is
// flushed by the control-interval stats refresh.
func TestDeltaIngestStatsRefreshDrainsPending(t *testing.T) {
	center, svcs := startIngestPipeline(t, 1000, time.Hour)
	if _, err := center.Submit([][]time.Duration{
		{20 * time.Millisecond},
		{10 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if deltas, _, _, _ := center.IngestCounts(); deltas != 0 {
		t.Fatalf("partial batch flushed early: %d deltas", deltas)
	}
	if _, _, pendingQ, _ := svcs[0].IngestStats(); pendingQ != 1 {
		t.Fatalf("stage pending queries = %d, want 1", pendingQ)
	}
	// One control interval: Adjust refreshes every stage, draining batches.
	if _, err := center.Adjust(core.NewFreqBoost(core.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	deltas, deltaQueries, _, _ := center.IngestCounts()
	if deltas != 2 || deltaQueries != 2 {
		t.Fatalf("after refresh: deltas = %d queries = %d, want 2/2", deltas, deltaQueries)
	}
	if _, _, pendingQ, _ := svcs[0].IngestStats(); pendingQ != 0 {
		t.Fatalf("stage still holds %d pending queries after refresh", pendingQ)
	}
	if _, s, ok := center.Aggregator().InstStats("ASR_1"); !ok || s <= 0 {
		t.Fatal("refresh-drained delta did not reach the aggregator")
	}
}

// oldStageService is a stage service predating delta ingest: it registers
// only the legacy methods (no MethodIngest) and ships records on every
// ProcessReply — the wire behavior of an old binary, for the mixed-
// deployment interop test.
type oldStageService struct {
	server *rpc.Server
	name   string
}

func startOldStageService(t *testing.T, name string) string {
	t.Helper()
	s := &oldStageService{server: rpc.NewServer(), name: name}
	rpc.HandleFunc(s.server, MethodInfo, func(struct{}) (InfoReply, error) {
		return InfoReply{Name: name, CanScale: true, MemBound: 0.2}, nil
	})
	rpc.HandleFunc(s.server, MethodStats, func(struct{}) (StatsReply, error) {
		return StatsReply{Instances: []InstanceStats{{Name: name + "_1", Level: cmp.MidLevel}}}, nil
	})
	rpc.HandleFunc(s.server, MethodProcess, func(a ProcessArgs) (ProcessReply, error) {
		return ProcessReply{Records: []RecordWire{{
			Instance:   name + "_1",
			Stage:      name,
			QueueEnter: 0,
			ServeStart: time.Millisecond,
			ServeEnd:   3 * time.Millisecond,
		}}}, nil
	})
	addr, err := s.server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.server.Close() })
	return addr
}

// TestMixedDeploymentOldStageNewCenter is the wire back-compat satellite: a
// new center with delta ingest enabled drives one old-binary stage (answers
// "unknown method" to the negotiation) and one new stage in a single
// deployment. The old stage keeps the per-record contract, the new stage
// ships deltas, and both streams land in one aggregator.
func TestMixedDeploymentOldStageNewCenter(t *testing.T) {
	oldAddr := startOldStageService(t, "OLD")

	svc, err := NewStageService(StageOptions{
		Name: "NEW", Kind: stage.Pipeline, MemBound: 0.25,
		Instances: 1, Level: cmp.MidLevel, TimeScale: testScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	newAddr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const batch = 2
	center, err := NewCenterOptions(100, 25*time.Second, []string{oldAddr, newAddr}, CenterOptions{
		IngestBatch:    batch,
		IngestInterval: time.Hour,
		ProbeInterval:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		center.Close()
		svc.Close()
	})

	if got := center.DeltaIngestStages(); got != 1 {
		t.Fatalf("DeltaIngestStages = %d, want only the new stage", got)
	}

	const n = 4
	for i := 0; i < n; i++ {
		if _, err := center.Submit([][]time.Duration{
			{5 * time.Millisecond},
			{10 * time.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
	}

	deltas, _, records, _ := center.IngestCounts()
	if records != n {
		t.Fatalf("old stage shipped %d records, want %d", records, n)
	}
	if deltas != n/batch {
		t.Fatalf("new stage shipped %d deltas, want %d", deltas, n/batch)
	}
	// Both ingest paths reach the same aggregator.
	for _, inst := range []string{"OLD_1", "NEW_1"} {
		if _, s, ok := center.Aggregator().InstStats(inst); !ok || s <= 0 {
			t.Fatalf("InstStats(%q) missing: per-record and delta streams must coexist", inst)
		}
	}
}

// TestIngestNegotiationOldCenterShape: a center without IngestBatch (an old
// binary's wire behavior — it never calls MethodIngest) leaves a new stage
// in per-record mode, so records keep flowing.
func TestIngestNegotiationOldCenterShape(t *testing.T) {
	center, svcs := startPipeline(t, 100)
	for _, svc := range svcs {
		if enabled, _, _, _ := svc.IngestStats(); enabled {
			t.Fatal("stage armed batched ingest without negotiation")
		}
	}
	if _, err := center.Submit([][]time.Duration{
		{5 * time.Millisecond},
		{5 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, records, _ := center.IngestCounts()
	if records != 2 {
		t.Fatalf("per-record folds = %d, want 2", records)
	}
}

// TestDeltaFrameWireBackCompat: the two shapes of a ProcessReply survive the
// binary body. A per-record reply (records, nil delta) spends one byte on the
// absent delta and decodes with Delta still nil — the center tells the two
// contracts apart by that — and a batched reply decodes with its digests
// intact and valid.
func TestDeltaFrameWireBackCompat(t *testing.T) {
	perRecord := ProcessReply{Records: []RecordWire{{
		Instance: "QA_1", Stage: "QA", QueueEnter: time.Millisecond, ServeStart: 2 * time.Millisecond, ServeEnd: 9 * time.Millisecond,
	}}}
	body := perRecord.AppendWire(nil)
	if body[len(body)-1] != 0 {
		t.Fatalf("per-record body does not end in the absent-delta byte: %x", body)
	}
	var reply ProcessReply
	if err := reply.DecodeWire(body); err != nil {
		t.Fatal(err)
	}
	if len(reply.Records) != 1 || reply.Delta != nil {
		t.Fatalf("per-record body decode: %+v", reply)
	}

	acc := stats.NewDeltaAccumulator(8, time.Second)
	acc.FoldRecord(time.Millisecond, "QA_1", "QA", time.Millisecond, 2*time.Millisecond)
	acc.FoldCompletion(time.Millisecond)
	var batched ProcessReply
	if err := batched.DecodeWire(ProcessReply{Delta: acc.Flush(time.Millisecond)}.AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	if batched.Delta == nil || batched.Delta.Records() != 1 || batched.Delta.V != stats.DeltaVersion {
		t.Fatalf("batched body decode: %+v", batched.Delta)
	}
	if err := batched.Delta.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestNegotiationClampsToStageBounds: a stage started with operator
// bounds (cmd/stagesvc -ingest.batch / -ingest.interval) accepts a center's
// negotiation but clamps the batch and interval — the local guard on
// pending-delta memory and staleness no center configuration can override.
func TestIngestNegotiationClampsToStageBounds(t *testing.T) {
	svc, err := NewStageService(StageOptions{
		Name: "web", MemBound: 0.2, Instances: 1, TimeScale: testScale,
		IngestMaxBatch: 32, IngestMaxInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	cli, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	var reply IngestReply
	if err := cli.Call(MethodIngest, IngestArgs{
		Version: stats.DeltaVersion, Batch: 1024, IntervalNS: int64(time.Second),
	}, &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Accepted {
		t.Fatal("bounded stage rejected the negotiation instead of clamping")
	}
	svc.mu.Lock()
	acc := svc.ingest
	svc.mu.Unlock()
	if acc == nil || acc.Batch() != 32 || acc.Interval() != 20*time.Millisecond {
		t.Fatalf("negotiated accumulator not clamped: batch=%d interval=%v",
			acc.Batch(), acc.Interval())
	}
}

// TestStatSinkRecordAndDeltaAgree pushes the same completions through both
// sink methods: one call per completion vs one call per batch, identical
// aggregator statistics, 10× fewer stat RPCs.
func TestStatSinkRecordAndDeltaAgree(t *testing.T) {
	mkAgg := func() *core.Aggregator {
		return core.NewAggregatorOptions(10*time.Second, func() time.Duration { return time.Second },
			core.AggregatorOptions{Window: core.WindowBucketed})
	}
	recAgg, delAgg := mkAgg(), mkAgg()
	recSink, delSink := NewStatSink(recAgg), NewStatSink(delAgg)
	recAddr, err := recSink.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	delAddr, err := delSink.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recSink.Close(); delSink.Close() })

	recCli, err := rpc.Dial(recAddr)
	if err != nil {
		t.Fatal(err)
	}
	delCli, err := rpc.Dial(delAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recCli.Close(); delCli.Close() })

	const n = 40
	acc := stats.NewDeltaAccumulator(10, time.Hour)
	for i := 0; i < n; i++ {
		lat := time.Duration(i+1) * time.Millisecond
		rec := RecordWire{Instance: "web-0", Stage: "web", ServeStart: time.Millisecond, ServeEnd: lat}
		if err := recCli.Call(MethodStatRecord, StatRecordArgs{
			QueryID: uint64(i), LatencyNS: int64(lat), Records: []RecordWire{rec},
		}, nil); err != nil {
			t.Fatal(err)
		}
		r := rec.toRecord(query.ID(i))
		acc.FoldRecord(time.Second, "web-0", "web", r.Queuing(), r.Serving())
		acc.FoldQuery(time.Second, lat)
		if d := acc.FlushIfDue(time.Second); d != nil {
			if err := delCli.Call(MethodStatDelta, d, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	recCalls, recQueries, _ := recSink.Counts()
	delCalls, delQueries, gaps := delSink.Counts()
	if recQueries != n || delQueries != n {
		t.Fatalf("queries: record %d delta %d, want %d", recQueries, delQueries, n)
	}
	if gaps != 0 {
		t.Fatalf("delta sink saw %d sequence gaps", gaps)
	}
	if recCalls != n || delCalls != n/10 {
		t.Fatalf("stat RPCs: record %d delta %d, want %d and %d", recCalls, delCalls, n, n/10)
	}
	q1, s1, _ := recAgg.InstStats("web-0")
	q2, s2, _ := delAgg.InstStats("web-0")
	if q1 != q2 || s1 != s2 {
		t.Fatalf("InstStats: record (%v,%v), delta (%v,%v)", q1, s1, q2, s2)
	}
	l1, _ := recAgg.WindowLatency()
	l2, _ := delAgg.WindowLatency()
	if l1 != l2 {
		t.Fatalf("WindowLatency: record %v, delta %v", l1, l2)
	}
	p1, _ := recAgg.WindowTail(0.99)
	p2, _ := delAgg.WindowTail(0.99)
	if p1 != p2 {
		t.Fatalf("WindowTail: record %v, delta %v", p1, p2)
	}
}

// TestDeltaIngestConcurrentSubmits races batched submits under -race: the
// accumulator's clamps and the center's fold path must be data-race free,
// and no query may be lost or double counted.
func TestDeltaIngestConcurrentSubmits(t *testing.T) {
	center, _ := startIngestPipeline(t, 5, 50*time.Millisecond)
	const workers, each = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := center.Submit([][]time.Duration{
					{10 * time.Millisecond},
					{5 * time.Millisecond},
				}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := center.Aggregator().Ingested(); got != workers*each {
		t.Fatalf("ingested %d queries, want %d", got, workers*each)
	}
	_, _, records, _ := center.IngestCounts()
	if records != 0 {
		t.Fatalf("records leaked onto a delta pipeline: %d", records)
	}
}

// TestReadmitRearmsDeltaIngest: a restarted stage process comes up disarmed
// (per-record), so re-admission must re-offer delta ingest — otherwise one
// crash silently degrades that stage's wire traffic for the rest of the run
// — and reset the sequence high-water mark, or every frame from the new
// process (numbering from 1) would count as a gap until it caught up.
func TestReadmitRearmsDeltaIngest(t *testing.T) {
	specs := []StageOptions{
		{Name: "ASR", Kind: stage.Pipeline, MemBound: 0.15, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale},
		{Name: "QA", Kind: stage.Pipeline, MemBound: 0.25, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale},
	}
	var svcs []*StageService
	var addrs []string
	for _, so := range specs {
		svc, err := NewStageService(so)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, svc)
		addrs = append(addrs, addr)
	}
	center, err := NewCenterOptions(100, 25*time.Second, addrs, CenterOptions{
		IngestBatch:   32,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	restarted := svcs[1]
	t.Cleanup(func() {
		center.Close()
		svcs[0].Close()
		restarted.Close()
	})

	st := center.stages[1]
	if !st.deltaIngest {
		t.Fatal("precondition: delta ingest not negotiated at startup")
	}

	// "Crash" the QA process and bring a fresh one up on the same port:
	// the new process has no negotiated accumulator and numbers any future
	// flushes from 1. Seed a high-water mark as if deltas had been folded.
	st.mu.Lock()
	st.deltaSeq = 7
	st.mu.Unlock()
	svcs[1].Close()
	svc2, err := NewStageService(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	restarted = svc2
	if _, err := svc2.Listen(addrs[1]); err != nil {
		t.Fatalf("rebinding restarted stage on %s: %v", addrs[1], err)
	}
	if enabled, _, _, _ := svc2.IngestStats(); enabled {
		t.Fatal("fresh stage process should come up disarmed")
	}

	st.setHealth(Down)
	for i := 0; i < 40 && st.Health() != Healthy; i++ {
		center.ProbeNow()
		if st.Health() != Healthy {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if st.Health() != Healthy {
		t.Fatalf("restarted stage never re-admitted; healths: %+v", center.Healths())
	}

	st.mu.Lock()
	armed, seq := st.deltaIngest, st.deltaSeq
	st.mu.Unlock()
	if !armed {
		t.Error("re-admission did not re-negotiate delta ingest")
	}
	if seq != 0 {
		t.Errorf("deltaSeq = %d after re-admission, want 0 (fresh process numbers from 1)", seq)
	}
	if enabled, _, _, _ := svc2.IngestStats(); !enabled {
		t.Error("restarted stage service not re-armed for delta ingest")
	}
}
