package dist

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/rpc"
	"powerchief/internal/stage"
)

// Chaos tests: the fault-injection harness (ChaosProxy) kills, hangs, and
// slows stage services mid-run, and the Command Center must keep its
// promises — no submit blocks past its deadline, a down stage's watts are
// reclaimed for the survivors, and a returning stage is re-admitted without
// the global budget ever being exceeded.

// chaosOptions are tight, test-friendly fault-tolerance settings with the
// background prober disabled (tests drive ProbeNow explicitly).
func chaosOptions() CenterOptions {
	return CenterOptions{
		CallTimeout:   300 * time.Millisecond,
		SubmitTimeout: 500 * time.Millisecond,
		Retry:         rpc.RetryPolicy{Max: 1, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
		ProbeInterval: -1,
		SuspectAfter:  2,
	}
}

// startChaosPipeline runs three stage services, each behind a ChaosProxy,
// and a center connected through the proxies with zero initial headroom
// (budget = 3 cores at the mid level).
func startChaosPipeline(t *testing.T, opts CenterOptions) (*Center, []*StageService, []*ChaosProxy) {
	t.Helper()
	specs := []StageOptions{
		{Name: "ASR", Kind: stage.Pipeline, MemBound: 0.15, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale},
		{Name: "IMM", Kind: stage.Pipeline, MemBound: 0.35, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale},
		{Name: "QA", Kind: stage.Pipeline, MemBound: 0.25, Instances: 1, Level: cmp.MidLevel, TimeScale: testScale},
	}
	var svcs []*StageService
	var proxies []*ChaosProxy
	var addrs []string
	for _, so := range specs {
		svc, err := NewStageService(so)
		if err != nil {
			t.Fatal(err)
		}
		backend, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		proxy := NewChaosProxy(backend)
		front, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, svc)
		proxies = append(proxies, proxy)
		addrs = append(addrs, front)
	}
	budget := 3 * cmp.DefaultModel().Power(cmp.MidLevel)
	center, err := NewCenterOptions(budget, 25*time.Second, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		center.Close()
		for _, p := range proxies {
			p.Close()
		}
		for _, s := range svcs {
			s.Close()
		}
	})
	return center, svcs, proxies
}

// feedQueries pushes n queries through so the aggregator has statistics.
func feedQueries(t *testing.T, center *Center, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := center.Submit([][]time.Duration{
			{60 * time.Millisecond},
			{20 * time.Millisecond},
			{20 * time.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// watchBudget polls Draw() in the background and records the worst
// overshoot; stop it and check the result via the returned functions.
func watchBudget(center *Center) (stop func(), maxDraw func() cmp.Watts) {
	var mu sync.Mutex
	var worst cmp.Watts
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			d := center.Draw()
			mu.Lock()
			if d > worst {
				worst = d
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) },
		func() cmp.Watts { mu.Lock(); defer mu.Unlock(); return worst }
}

func TestChaosKilledStageQuarantineBoostAndReadmit(t *testing.T) {
	opts := chaosOptions()
	center, _, proxies := startChaosPipeline(t, opts)
	feedQueries(t, center, 5)

	stopWatch, maxDraw := watchBudget(center)
	defer stopWatch()

	// Kill the middle stage.
	proxies[1].Kill()

	// Submits fail within the deadline — never hang.
	deadline := opts.SubmitTimeout + time.Second
	start := time.Now()
	_, err := center.Submit([][]time.Duration{{time.Millisecond}, {time.Millisecond}, {time.Millisecond}})
	if err == nil {
		t.Fatal("submit through a killed stage succeeded")
	}
	if elapsed := time.Since(start); elapsed > deadline {
		t.Fatalf("submit blocked %v, deadline %v", elapsed, deadline)
	}

	// The connection broke, so the first failure already quarantines; the
	// next submit fails fast with the typed error.
	start = time.Now()
	_, err = center.Submit([][]time.Duration{{time.Millisecond}, {time.Millisecond}, {time.Millisecond}})
	if !errors.Is(err, ErrStageDown) {
		t.Fatalf("submit after quarantine = %v, want ErrStageDown", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("fail-fast submit took %v", elapsed)
	}

	// Quarantine accounting: the dead stage's watts are reclaimed.
	model := cmp.DefaultModel()
	if got, want := center.Draw(), 2*model.Power(cmp.MidLevel); !cmp.ApproxEqual(got, want) {
		t.Errorf("Draw = %v, want %v (dead stage excluded)", got, want)
	}
	if center.Headroom() < model.Power(cmp.MidLevel)-1e-9 {
		t.Errorf("headroom %v did not grow by the dead stage's draw", center.Headroom())
	}
	if got := len(center.Quarantined()); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}

	// Degraded control interval: the policy boosts a survivor with the
	// reclaimed watts.
	cfg := core.DefaultConfig()
	cfg.BalanceThreshold = 0
	out, err := center.Adjust(core.NewFreqBoost(cfg))
	if err != nil {
		t.Fatalf("degraded Adjust: %v", err)
	}
	if out.Kind != core.BoostFrequency {
		t.Fatalf("degraded Adjust outcome = %v, want a frequency boost funded by reclaimed watts", out.Kind)
	}
	if center.Draw() > center.Budget()+1e-9 {
		t.Fatalf("boost pushed draw %v over budget %v", center.Draw(), center.Budget())
	}

	// Heal the partition: the prober re-admits the stage, restoring its
	// budget share (deboosting survivors as needed) without ever exceeding
	// the budget.
	proxies[1].Restore("")
	readmitted := false
	for i := 0; i < 40 && !readmitted; i++ {
		center.ProbeNow()
		readmitted = len(center.Quarantined()) == 0
		if !readmitted {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !readmitted {
		t.Fatalf("stage never re-admitted; healths: %+v", center.Healths())
	}
	if got := len(center.Stages()); got != 3 {
		t.Errorf("visible stages after re-admission = %d, want 3", got)
	}
	if center.Draw() > center.Budget()+1e-9 {
		t.Errorf("draw %v exceeds budget %v after re-admission", center.Draw(), center.Budget())
	}

	// The budget held at every observed instant, including mid-recovery.
	stopWatch()
	if worst := maxDraw(); worst > center.Budget()+1e-9 {
		t.Errorf("observed draw %v over budget %v during the run", worst, center.Budget())
	}

	// End-to-end service is restored.
	if _, err := center.Submit([][]time.Duration{{time.Millisecond}, {time.Millisecond}, {time.Millisecond}}); err != nil {
		t.Errorf("submit after recovery: %v", err)
	}
}

func TestChaosHungStageSubmitBoundedByDeadline(t *testing.T) {
	opts := chaosOptions()
	center, _, proxies := startChaosPipeline(t, opts)
	feedQueries(t, center, 3)

	// Hang the last stage: connections stay up, requests are consumed,
	// nothing ever answers. Only deadlines save the caller.
	proxies[2].SetMode(ChaosHang)

	work := [][]time.Duration{{time.Millisecond}, {time.Millisecond}, {time.Millisecond}}
	for i := 0; i < opts.SuspectAfter; i++ {
		start := time.Now()
		_, err := center.Submit(work)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("submit through a hung stage succeeded")
		}
		if !errors.Is(err, rpc.ErrTimeout) && !errors.Is(err, ErrStageDown) {
			t.Fatalf("submit error = %v, want a deadline or stage-down error", err)
		}
		if elapsed > opts.SubmitTimeout+time.Second {
			t.Fatalf("submit blocked %v, deadline %v", elapsed, opts.SubmitTimeout)
		}
	}

	// Repeated timeouts quarantine the hung stage; submits now fail fast.
	if st := center.Healths()[2].State; st != Down {
		t.Fatalf("hung stage health = %v, want down", st)
	}
	start := time.Now()
	if _, err := center.Submit(work); !errors.Is(err, ErrStageDown) {
		t.Errorf("submit after hang quarantine = %v, want ErrStageDown", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("fail-fast submit took %v", elapsed)
	}

	// Degraded Adjust still runs on the survivors.
	cfg := core.DefaultConfig()
	cfg.BalanceThreshold = 0
	if _, err := center.Adjust(core.NewFreqBoost(cfg)); err != nil {
		t.Errorf("degraded Adjust with hung stage: %v", err)
	}
	if center.Draw() > center.Budget()+1e-9 {
		t.Errorf("draw %v over budget %v", center.Draw(), center.Budget())
	}

	// Recovery: clear the hang and sever the poisoned connections so the
	// prober redials cleanly, then wait for re-admission.
	proxies[2].Restore("")
	proxies[2].SeverConns()
	readmitted := false
	for i := 0; i < 40 && !readmitted; i++ {
		center.ProbeNow()
		readmitted = len(center.Quarantined()) == 0
		if !readmitted {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !readmitted {
		t.Fatalf("hung stage never re-admitted; healths: %+v", center.Healths())
	}
	if _, err := center.Submit(work); err != nil {
		t.Errorf("submit after hang recovery: %v", err)
	}
}

func TestChaosSlowStageServesUnderDeadlineThenTripsIt(t *testing.T) {
	opts := chaosOptions()
	center, _, proxies := startChaosPipeline(t, opts)
	feedQueries(t, center, 3)

	// A modest slowdown: submits succeed, the stage stays healthy.
	proxies[0].SetMode(ChaosSlow)
	proxies[0].SetDelay(50 * time.Millisecond)
	work := [][]time.Duration{{time.Millisecond}, {time.Millisecond}, {time.Millisecond}}
	start := time.Now()
	if _, err := center.Submit(work); err != nil {
		t.Fatalf("submit through slow stage: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("slow injection had no effect (submit took %v)", elapsed)
	}
	if st := center.Healths()[0].State; st != Healthy {
		t.Errorf("slow-but-answering stage health = %v, want healthy", st)
	}

	// Slower than the deadline: the submit is bounded and fails.
	proxies[0].SetDelay(2 * opts.SubmitTimeout)
	start = time.Now()
	_, err := center.Submit(work)
	if err == nil {
		t.Fatal("submit exceeded its deadline without erroring")
	}
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Errorf("submit error = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > opts.SubmitTimeout+time.Second {
		t.Errorf("submit blocked %v past its deadline %v", elapsed, opts.SubmitTimeout)
	}
}

func TestChaosDegradedSubmitServesSurvivors(t *testing.T) {
	opts := chaosOptions()
	opts.DegradedSubmit = true
	center, _, proxies := startChaosPipeline(t, opts)
	feedQueries(t, center, 3)

	proxies[1].Kill()
	work := [][]time.Duration{
		{5 * time.Millisecond},
		{5 * time.Millisecond},
		{5 * time.Millisecond},
	}
	// The first submit may catch the stage before it is marked down.
	center.Submit(work)

	// Once quarantined, degraded submits are served by the survivors and
	// their end-to-end latency recovers to healthy-path levels.
	var served atomic.Int32
	for i := 0; i < 10; i++ {
		lat, err := center.Submit(work)
		if err != nil {
			t.Fatalf("degraded submit %d: %v", i, err)
		}
		if lat <= 0 {
			t.Errorf("degraded submit %d latency = %v", i, lat)
		}
		if lat > opts.SubmitTimeout {
			t.Errorf("degraded submit %d latency %v worse than the deadline", i, lat)
		}
		served.Add(1)
	}
	if served.Load() != 10 {
		t.Errorf("served %d degraded queries, want 10", served.Load())
	}
	// The skipped stage contributed no records; the survivors did.
	if _, _, ok := center.Aggregator().InstStats("ASR_1"); !ok {
		t.Error("survivor ASR_1 has no stats")
	}
	if _, _, ok := center.Aggregator().InstStats("QA_1"); !ok {
		t.Error("survivor QA_1 has no stats")
	}
}

// TestChaosSeverConnsWaitsForRelays: when SeverConns returns, every relay it
// severed has exited and untracked both of its connections — Kill and
// Partition leave nothing half torn down behind them — in every mode.
func TestChaosSeverConnsWaitsForRelays(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			conn, err := backend.Accept()
			if err != nil {
				return
			}
			go io.Copy(conn, conn) // echo
		}
	}()
	proxy := NewChaosProxy(backend.Addr().String())
	front, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	for _, mode := range []ChaosMode{ChaosPass, ChaosHang, ChaosSlow} {
		proxy.SetMode(ChaosPass)
		for i := 0; i < 8; i++ {
			conn, err := net.Dial("tcp", front)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// One echo, so the relay is known to be up and tracked.
			conn.Write([]byte("ping"))
			if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
				t.Fatal(err)
			}
		}
		proxy.SetMode(mode)
		proxy.SeverConns()
		proxy.mu.Lock()
		left := len(proxy.conns)
		proxy.mu.Unlock()
		if left != 0 {
			t.Fatalf("%v mode: %d connections still tracked after SeverConns returned", mode, left)
		}
	}
}
