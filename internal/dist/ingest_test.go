package dist

import (
	"strings"
	"sync"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/rpc"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
)

// startIngestPipeline spins up a two-stage pipeline whose stages batch their
// statistics at the given batch/interval.
func startIngestPipeline(t *testing.T, batch int, interval time.Duration) (*Center, []*StageService, []string) {
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
	return center, svcs, addrs
}

// TestDeltaIngestEndToEnd drives real queries through a pipeline: no records
// travel on the wire, the batched deltas land in the aggregator, and the
// per-instance stats match what the queries did.
func TestDeltaIngestEndToEnd(t *testing.T) {
	const batch = 4
	center, svcs, _ := startIngestPipeline(t, batch, time.Hour)
	for _, svc := range svcs {
		if b, ivl := svc.ingest.Sizes(); b != batch || ivl != time.Hour {
			t.Fatalf("stage flushes at (%d, %v), want the center's (%d, %v)", b, ivl, batch, time.Hour)
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
		t.Fatalf("records traveled without a tracer: %d", records)
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
	center, svcs, _ := startIngestPipeline(t, 1000, time.Hour)
	if _, err := center.Submit([][]time.Duration{
		{20 * time.Millisecond},
		{10 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if deltas, _, _, _ := center.IngestCounts(); deltas != 0 {
		t.Fatalf("partial batch flushed early: %d deltas", deltas)
	}
	if _, pendingQ := svcs[0].IngestStats(); pendingQ != 1 {
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
	if _, pendingQ := svcs[0].IngestStats(); pendingQ != 0 {
		t.Fatalf("stage still holds %d pending queries after refresh", pendingQ)
	}
	if _, s, ok := center.Aggregator().InstStats("ASR_1"); !ok || s <= 0 {
		t.Fatal("refresh-drained delta did not reach the aggregator")
	}
}

// TestDefaultCenterShipsNoRecords: statistics cross the process boundary only
// as deltas at every batch size, the zero value (the stats defaults)
// included — without a tracer no record travels, and after one control
// interval's refresh every instance has its Eq. 2/3 inputs.
func TestDefaultCenterShipsNoRecords(t *testing.T) {
	for _, batch := range []int{0, 1, 64} {
		center, svcs, _ := startIngestPipeline(t, batch, 0)
		want := batch
		if want == 0 {
			want = stats.DefaultDeltaBatch
		}
		for _, svc := range svcs {
			if b, ivl := svc.ingest.Sizes(); b != want || ivl != stats.DefaultDeltaInterval {
				t.Fatalf("batch %d: stage flushes at (%d, %v), want (%d, %v)", batch, b, ivl, want, stats.DefaultDeltaInterval)
			}
		}
		const n = 6
		for i := 0; i < n; i++ {
			if _, err := center.Submit([][]time.Duration{{20 * time.Millisecond}, {10 * time.Millisecond}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := center.Adjust(core.NewFreqBoost(core.DefaultConfig())); err != nil {
			t.Fatal(err)
		}
		deltas, deltaQueries, records, lost := center.IngestCounts()
		if records != 0 || deltas == 0 || deltaQueries != 2*n || lost != 0 {
			t.Fatalf("batch %d: %d deltas over %d stage completions, %d records, %d lost; want deltas > 0, %d, 0, 0",
				batch, deltas, deltaQueries, records, lost, 2*n)
		}
		for _, inst := range []string{"ASR_1", "QA_1"} {
			if _, s, ok := center.Aggregator().InstStats(inst); !ok || s <= 0 {
				t.Fatalf("batch %d: InstStats(%q) = (%v, %v) after a refresh", batch, inst, s, ok)
			}
		}
		if got := center.Aggregator().Ingested(); got != n {
			t.Fatalf("batch %d: aggregator ingested %d queries, want %d", batch, got, n)
		}
	}
}

// TestDeltaFrameWireBackCompat: the two shapes of a ProcessReply survive the
// binary body. A traced reply between flushes (records, nil delta) spends one
// byte on the absent delta and decodes with Delta still nil, and a flushing
// reply decodes with its digests intact and valid.
func TestDeltaFrameWireBackCompat(t *testing.T) {
	perRecord := ProcessReply{Records: []RecordWire{{
		Instance: "QA_1", Stage: "QA", QueueEnter: time.Millisecond, ServeStart: 2 * time.Millisecond, ServeEnd: 9 * time.Millisecond,
	}}}
	body := perRecord.AppendWire(nil)
	if body[len(body)-1] != 0 {
		t.Fatalf("traced body does not end in the absent-delta byte: %x", body)
	}
	var reply ProcessReply
	if err := reply.DecodeWire(body); err != nil {
		t.Fatal(err)
	}
	if len(reply.Records) != 1 || reply.Delta != nil {
		t.Fatalf("traced body decode: %+v", reply)
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
// bounds (cmd/stagesvc -ingest.batch / -ingest.interval) takes a center's
// sizes but clamps them — the defaults a zero asks for included — and an
// impossible size is an error that leaves the accumulator as it was. The
// setter keeps what is pending: resizing loses no statistics.
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

	if b, ivl := svc.ingest.Sizes(); b != stats.DefaultDeltaBatch || ivl != stats.DefaultDeltaInterval {
		t.Fatalf("unconfigured stage flushes at (%d, %v), want the stats defaults", b, ivl)
	}
	svc.ingest.FoldCompletion(0)
	for _, ask := range []IngestArgs{
		{Batch: 1024, IntervalNS: int64(time.Second)},
		{}, // the defaults, 256 / 100ms, are above the bounds too
	} {
		if err := cli.Call(MethodIngest, ask, nil); err != nil {
			t.Fatalf("%+v: %v", ask, err)
		}
		if b, ivl := svc.ingest.Sizes(); b != 32 || ivl != 20*time.Millisecond {
			t.Fatalf("%+v not clamped: batch=%d interval=%v", ask, b, ivl)
		}
	}
	if err := cli.Call(MethodIngest, IngestArgs{Batch: 8, IntervalNS: int64(time.Millisecond)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Call(MethodIngest, IngestArgs{Batch: -1}, nil); err == nil {
		t.Fatal("negative batch accepted")
	}
	if b, ivl := svc.ingest.Sizes(); b != 8 || ivl != time.Millisecond {
		t.Fatalf("sizes after a refused call: batch=%d interval=%v, want 8 / 1ms", b, ivl)
	}
	if _, pending := svc.IngestStats(); pending != 1 {
		t.Fatalf("resizing dropped the pending batch: %d pending, want 1", pending)
	}
}

// TestDeltaIngestConcurrentSubmits races batched submits under -race: the
// accumulator's clamps and the center's fold path must be data-race free,
// and no query may be lost or double counted.
func TestDeltaIngestConcurrentSubmits(t *testing.T) {
	center, _, _ := startIngestPipeline(t, 5, 50*time.Millisecond)
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
	// Concurrent submits fold one stage's frames in any order; once the
	// refresh has drained the tails nothing may read as lost.
	if _, err := center.Adjust(core.NewFreqBoost(core.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	_, deltaQueries, records, lost := center.IngestCounts()
	if records != 0 || lost != 0 || deltaQueries != 2*workers*each {
		t.Fatalf("%d records, %d lost flushes, %d stage completions summarized; want 0, 0, %d",
			records, lost, deltaQueries, 2*workers*each)
	}
}

// TestLostFlushesNotDiscontinuities: the center counts flushes that never
// arrived, per stage — not the order they were folded in — and re-sending the
// sizes (re-admission) starts the stage's sequence clean.
func TestLostFlushesNotDiscontinuities(t *testing.T) {
	center, _, _ := startIngestPipeline(t, 1000, time.Hour)
	fold := func(st *remoteStage, seqs ...uint64) {
		for _, seq := range seqs {
			if err := center.foldDelta(st, &stats.Delta{V: stats.DeltaVersion, Seq: seq, Queries: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	lost := func() uint64 { _, _, _, n := center.IngestCounts(); return n }
	asr, qa := center.stages[0], center.stages[1]
	fold(asr, 1, 3, 2, 4)
	if got := lost(); got != 0 {
		t.Fatalf("out-of-order folds read as %d lost flushes, want 0", got)
	}
	fold(qa, 1, 2, 4)
	if got := lost(); got != 1 {
		t.Fatalf("1, 2, 4 reads as %d lost flushes, want 1", got)
	}
	// A delta the aggregator refuses loses its statistics: one more.
	foreign := []stats.InstDelta{{Instance: "ASR_1", Queuing: &stats.HistogramDigest{Growth: 3, Count: 1}}}
	if err := center.foldDelta(asr, &stats.Delta{V: stats.DeltaVersion, Seq: 5, Queries: 1, Insts: foreign}); err == nil {
		t.Fatal("a digest on a foreign bin layout folded")
	}
	if got := lost(); got != 2 {
		t.Fatalf("a refused delta reads as %d lost flushes in all, want 2", got)
	}
	if err := center.configureIngest(qa); err != nil {
		t.Fatal(err)
	}
	fold(qa, 2, 1)
	if got := lost(); got != 2 {
		t.Fatalf("re-armed stage numbering from 1: %d lost flushes, want the earlier 2", got)
	}
}

// TestReadmitRearmsDeltaIngest: a restarted stage process speaks the one
// contract from its first completion — at the stats defaults, numbering its
// flushes from 1 — so between the restart and its re-admission nothing is
// shipped as records and nothing is lost; re-admission re-sends the center's
// sizes, folds what the new process had pending, and re-arms the sequence
// tracking so the fresh numbering does not read as lost flushes.
func TestReadmitRearmsDeltaIngest(t *testing.T) {
	center, svcs, addrs := startIngestPipeline(t, 32, time.Hour)
	restarted, addr := svcs[1], addrs[1]
	t.Cleanup(func() { restarted.Close() })
	st := center.stages[1]

	// Deltas seq 1..3 arrive from the old QA process, then it "crashes" and a
	// fresh one comes up on the same port.
	for seq := uint64(1); seq <= 3; seq++ {
		if err := center.foldDelta(st, &stats.Delta{V: stats.DeltaVersion, Seq: seq, Queries: 1}); err != nil {
			t.Fatal(err)
		}
	}
	svcs[1].Close()
	svc2, err := NewStageService(StageOptions{Name: "QA", Kind: stage.Pipeline, MemBound: 0.25, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	restarted = svc2
	if _, err := svc2.Listen(addr); err != nil {
		t.Fatalf("rebinding restarted stage on %s: %v", addr, err)
	}
	if b, ivl := svc2.ingest.Sizes(); b != stats.DefaultDeltaBatch || ivl != stats.DefaultDeltaInterval {
		t.Fatalf("fresh stage process flushes at (%d, %v), want the stats defaults", b, ivl)
	}

	// Before the center re-admits it the new process serves a query (another
	// client's): no records on the reply, the statistics pending locally.
	cli, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	var reply ProcessReply
	err = cli.Call(MethodProcess, ProcessArgs{QueryID: 1, Work: []time.Duration{time.Millisecond}}, &reply)
	cli.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Records) != 0 {
		t.Fatalf("restarted stage shipped %d records before re-admission", len(reply.Records))
	}
	if _, pending := svc2.IngestStats(); pending != 1 {
		t.Fatalf("restarted stage holds %d pending completions, want 1", pending)
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

	if b, ivl := svc2.ingest.Sizes(); b != 32 || ivl != time.Hour {
		t.Errorf("re-admitted stage flushes at (%d, %v), want the center's (32, 1h)", b, ivl)
	}
	// The pending completion was folded (as the new process's seq 1), not
	// dropped by a probe, and the restart numbering reads as nothing lost.
	deltas, deltaQueries, records, lost := center.IngestCounts()
	if deltas != 4 || deltaQueries != 4 || records != 0 || lost != 0 {
		t.Errorf("after re-admission: %d deltas, %d queries, %d records, %d lost; want 4, 4, 0, 0", deltas, deltaQueries, records, lost)
	}
	if _, _, ok := center.Aggregator().InstStats("QA_1"); !ok {
		t.Error("the restarted stage's pending statistics never reached the aggregator")
	}
}

// TestReadmitSurvivesFailedIngestCall: the sizes re-sent at re-admission are
// refused (here: made impossible after connect) — the stage is re-admitted
// all the same and keeps flushing at the sizes it has; at connect the same
// refusal fails the constructor, naming the stage's address.
func TestReadmitSurvivesFailedIngestCall(t *testing.T) {
	center, svcs, addrs := startIngestPipeline(t, 32, time.Hour)
	st, addr := center.stages[1], addrs[1]
	center.opts.IngestBatch = -1
	st.setHealth(Down)
	center.ProbeNow()
	if st.Health() != Healthy {
		t.Fatalf("a refused stage.ingest blocked re-admission; healths: %+v", center.Healths())
	}
	if b, ivl := svcs[1].ingest.Sizes(); b != 32 || ivl != time.Hour {
		t.Errorf("stage flushes at (%d, %v) after the refused call, want its earlier (32, 1h)", b, ivl)
	}

	_, err := NewCenterOptions(100, time.Second, []string{addr}, CenterOptions{IngestBatch: -1, ProbeInterval: -1})
	if err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("connect with refused sizes: err = %v, want one naming %s", err, addr)
	}
}
