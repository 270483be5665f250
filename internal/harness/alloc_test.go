package harness

import (
	"runtime"
	"testing"

	"powerchief/internal/app"
	"powerchief/internal/core"
	"powerchief/internal/workload"
)

// TestAllocationsPerSimulatedQuery guards the DES data plane's allocation
// budget on the Table 2 Sirius run at medium load under PowerChief — the
// scenario the repository benchmark's des.allocs_per_query probe measures.
// A query costs its own storage (the Query, its work matrix, its records)
// plus the aggregator's share, control ticks and set-up included in the
// total; the engine, the instances and the generator add nothing per query.
func TestAllocationsPerSimulatedQuery(t *testing.T) {
	sc := mitigationScenario(app.Sirius(), "alloc-guard", workload.Medium,
		func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) }, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 1000 {
		t.Fatalf("only %d queries completed; the per-query figures need a full run", res.Completed)
	}
	queries := float64(res.Completed)
	allocs := float64(after.Mallocs-before.Mallocs) / queries
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / queries
	t.Logf("%d queries: %.2f allocs, %.0f B per query", res.Completed, allocs, bytes)
	if allocs > 8 {
		t.Errorf("%.2f allocations per simulated query, budget 8", allocs)
	}
	if bytes > 800 {
		t.Errorf("%.0f bytes allocated per simulated query, budget 800", bytes)
	}
}
