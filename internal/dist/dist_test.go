package dist

import (
	"sync"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/stage"
)

// testScale compresses time 100× so simulated work is cheap.
const testScale = 0.01

// startPipeline spins up stage services and a center for a two-stage app.
func startPipeline(t *testing.T, budget cmp.Watts) (*Center, []*StageService) {
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
	center, err := NewCenter(budget, 25*time.Second, addrs)
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

func TestDistributedQueryFlow(t *testing.T) {
	center, _ := startPipeline(t, 100)
	lat, err := center.Submit([][]time.Duration{
		{100 * time.Millisecond},
		{50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Errorf("latency = %v", lat)
	}
	sub, comp := center.Counts()
	if sub != 1 || comp != 1 {
		t.Errorf("counts = %d/%d", sub, comp)
	}
	if center.Aggregator().Ingested() != 1 {
		t.Error("aggregator did not receive the query")
	}
	// The stages folded the query's records; a stats refresh carries them
	// back to the center.
	if err := center.stages[0].refresh(); err != nil {
		t.Fatal(err)
	}
	q, s, ok := center.Aggregator().InstStats("ASR_1")
	if !ok {
		t.Fatal("no stats for ASR_1")
	}
	if s <= 0 {
		t.Errorf("serving stats = %v/%v", q, s)
	}
}

func TestDistributedConcurrentQueries(t *testing.T) {
	center, _ := startPipeline(t, 200)
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := center.Submit([][]time.Duration{
				{30 * time.Millisecond},
				{20 * time.Millisecond},
			}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, comp := center.Counts(); comp != 40 {
		t.Errorf("completed = %d", comp)
	}
	if got := center.Latency().Count(); got != 40 {
		t.Errorf("latencies = %d", got)
	}
}

func TestDistributedSystemView(t *testing.T) {
	center, _ := startPipeline(t, 100)
	stages := center.Stages()
	if len(stages) != 2 || stages[0].Name() != "ASR" || stages[1].Name() != "QA" {
		t.Fatalf("stage view wrong: %v", stages)
	}
	ins := stages[0].Instances()
	if len(ins) != 1 || ins[0].Name() != "ASR_1" {
		t.Fatalf("instance view wrong")
	}
	if ins[0].Level() != cmp.MidLevel {
		t.Error("level snapshot wrong")
	}
	// Two mid-level cores drawn.
	want := 2 * cmp.DefaultModel().Power(cmp.MidLevel)
	if !cmp.ApproxEqual(center.Draw(), want) {
		t.Errorf("Draw = %v, want %v", center.Draw(), want)
	}
}

func TestDistributedActuation(t *testing.T) {
	center, _ := startPipeline(t, 100)
	st := center.Stages()[1]
	in := st.Instances()[0]

	// DVFS over RPC.
	if err := in.SetLevel(cmp.MaxLevel); err != nil {
		t.Fatal(err)
	}
	if err := center.Stages()[1].(*remoteStage).refresh(); err != nil {
		t.Fatal(err)
	}
	if got := center.Stages()[1].Instances()[0].Level(); got != cmp.MaxLevel {
		t.Errorf("remote level = %v after SetLevel", got)
	}

	// Clone over RPC.
	clone, err := st.Clone(st.Instances()[0])
	if err != nil {
		t.Fatal(err)
	}
	if clone.StageName() != "QA" {
		t.Error("clone stage wrong")
	}
	if len(st.Instances()) != 2 {
		t.Error("snapshot missing the clone")
	}

	// Withdraw over RPC.
	if err := st.Withdraw(clone, st.Instances()[0]); err != nil {
		t.Fatal(err)
	}
	if len(st.Instances()) != 1 {
		t.Error("snapshot still holds the withdrawn instance")
	}
}

func TestDistributedBudgetEnforcedAtCenter(t *testing.T) {
	m := cmp.DefaultModel()
	// Exactly two mid cores: no headroom.
	center, _ := startPipeline(t, 2*m.Power(cmp.MidLevel))
	in := center.Stages()[0].Instances()[0]
	if err := in.SetLevel(cmp.MaxLevel); err == nil {
		t.Error("budget-exceeding remote DVFS accepted")
	}
	if _, err := center.Stages()[0].Clone(in); err == nil {
		t.Error("budget-exceeding remote clone accepted")
	}
	// Lowering always works and frees budget.
	if err := in.SetLevel(0); err != nil {
		t.Fatal(err)
	}
	if center.Headroom() <= 0 {
		t.Error("lowering freed no headroom")
	}
}

func TestDistributedPolicyAdjust(t *testing.T) {
	center, _ := startPipeline(t, 100)
	// Feed some queries so statistics exist.
	for i := 0; i < 10; i++ {
		if _, err := center.Submit([][]time.Duration{
			{200 * time.Millisecond},
			{40 * time.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.DefaultConfig()
	cfg.BalanceThreshold = 0 // act on any spread
	out, err := center.Adjust(core.NewFreqBoost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != core.BoostFrequency {
		t.Errorf("outcome = %v, want freq-boost of the heavy stage", out.Kind)
	}
	if out.Target != "ASR_1" {
		t.Errorf("boost target = %s, want the heavy ASR_1", out.Target)
	}
}

// TestSubmitBookkeepingUnderRace hammers the per-query admission helper from
// many goroutines while control intervals and probes run concurrently. Run
// with -race: the point is that query-ID assignment, the submitted/completed
// counters, and the stage snapshot are one atomic critical section
// (beginQuery), with no ordering hole between ID assignment and RPC issue.
func TestSubmitBookkeepingUnderRace(t *testing.T) {
	center, _ := startPipeline(t, 200)
	const workers = 16
	const perWorker = 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := center.Submit([][]time.Duration{
					{10 * time.Millisecond},
					{10 * time.Millisecond},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Control plane churns concurrently with the submitters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := core.DefaultConfig()
		cfg.BalanceThreshold = 0
		for i := 0; i < 10; i++ {
			center.Adjust(core.NewFreqBoost(cfg))
			center.ProbeNow()
			center.Counts()
			center.Draw()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	sub, comp := center.Counts()
	if sub != workers*perWorker || comp != workers*perWorker {
		t.Errorf("counts = %d/%d, want %d/%d", sub, comp, workers*perWorker, workers*perWorker)
	}
	if got := center.Latency().Count(); got != workers*perWorker {
		t.Errorf("latencies = %d, want %d", got, workers*perWorker)
	}
}

// TestFreeCoresContract pins the documented core.System.FreeCores contract
// of the distributed center: zero (or negative) headroom reports 0, but any
// positive headroom reports at least 1 — recycling can fund the remainder of
// a core — so the quarantine accounting must not silently change it.
func TestFreeCoresContract(t *testing.T) {
	m := cmp.DefaultModel()
	// Exactly two mid cores: zero headroom.
	center, _ := startPipeline(t, 2*m.Power(cmp.MidLevel))
	if got := center.FreeCores(); got != 0 {
		t.Errorf("FreeCores at zero headroom = %d, want 0", got)
	}
	// Lower one instance a step: small but positive headroom, below one
	// minimum-power core or not, FreeCores must report at least 1.
	in := center.Stages()[0].Instances()[0]
	if err := in.SetLevel(cmp.MidLevel - 1); err != nil {
		t.Fatal(err)
	}
	h := center.Headroom()
	if h <= 0 {
		t.Fatalf("headroom = %v after lowering a level", h)
	}
	want := int(h / m.MinPower())
	if want < 1 {
		want = 1
	}
	if got := center.FreeCores(); got != want || got < 1 {
		t.Errorf("FreeCores at headroom %v = %d, want %d (and never 0 with positive headroom)", h, got, want)
	}
}

func TestStageServiceValidation(t *testing.T) {
	if _, err := NewStageService(StageOptions{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := NewStageService(StageOptions{Name: "A", Instances: 0}); err == nil {
		t.Error("zero instances accepted")
	}
}

func TestCenterValidation(t *testing.T) {
	if _, err := NewCenter(0, time.Second, []string{"x"}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewCenter(10, time.Second, nil); err == nil {
		t.Error("no stages accepted")
	}
	if _, err := NewCenter(10, time.Second, []string{"127.0.0.1:1"}); err == nil {
		t.Error("dead address accepted")
	}
}

func TestSubmitShapeMismatchDistributed(t *testing.T) {
	center, _ := startPipeline(t, 100)
	if _, err := center.Submit([][]time.Duration{{time.Millisecond}}); err == nil {
		t.Error("work shape mismatch accepted")
	}
}
