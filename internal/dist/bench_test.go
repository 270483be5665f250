package dist

import (
	"fmt"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/stage"
	"powerchief/internal/stats"
)

// BenchmarkCenterSubmit is one query through the deployment the repository
// benchmark's dist-closed workload assembles (bench/wall.go): Sirius behind
// three loopback stage services of 2, 2 and 4 instances, work compressed to
// ~70 ns so that three sequential rpc hops are the round trip — at the stat
// batch size the workload runs (64), at the default (0 = 256) and at one
// flush per completion. On the 2-vCPU host of EXPERIMENTS.md, -cpu=1:
// 31–33 µs / 53 allocs per query at 64 (106 µs / 166 on the JSON-in-JSON
// frame); the per-size table is in EXPERIMENTS.md, "One stat contract".
func BenchmarkCenterSubmit(b *testing.B) {
	for _, batch := range []int{64, 0, 1} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) { benchCenterSubmit(b, batch) })
	}
}

func benchCenterSubmit(b *testing.B, batch int) {
	const timeScale = 1e-7
	var addrs []string
	for _, so := range []StageOptions{
		{Name: "ASR", MemBound: 0.15, Instances: 2},
		{Name: "IMM", MemBound: 0.35, Instances: 2},
		{Name: "QA", MemBound: 0.25, Instances: 4},
	} {
		so.Kind, so.Level, so.Cores, so.TimeScale = stage.Pipeline, cmp.MidLevel, 16, timeScale
		svc, err := NewStageService(so)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	center, err := NewCenterOptions(8*cmp.DefaultModel().Power(cmp.MidLevel), time.Second, addrs, CenterOptions{
		IngestBatch:    batch,
		IngestInterval: time.Duration(float64(10*time.Millisecond) / timeScale),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer center.Close()
	work := [][]time.Duration{{300 * time.Millisecond}, {130 * time.Millisecond}, {700 * time.Millisecond}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := center.Submit(work); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if deltas, _, records, _ := center.IngestCounts(); records != 0 || (b.N >= stats.DefaultDeltaBatch && deltas == 0) {
		b.Fatalf("ingest: %d deltas, %d records after %d queries", deltas, records, b.N)
	}
}
