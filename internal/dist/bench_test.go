package dist

import (
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/stage"
)

// BenchmarkCenterSubmit is one query through the deployment the repository
// benchmark's dist-closed workload assembles (bench/wall.go): Sirius behind
// three loopback stage services of 2, 2 and 4 instances, delta-batched
// ingest at 64, work compressed to ~70 ns so that three sequential rpc hops
// are the round trip. On the 2-vCPU host of EXPERIMENTS.md, -cpu=1:
// 35–50 µs / 54 allocs per query (106 µs / 166 on the JSON-in-JSON frame).
func BenchmarkCenterSubmit(b *testing.B) {
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
		IngestBatch:    64,
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
	if deltas, _, records, _ := center.IngestCounts(); records != 0 || (b.N >= 64 && deltas == 0) {
		b.Fatalf("ingest: %d deltas, %d per-record frames after %d queries", deltas, records, b.N)
	}
}
