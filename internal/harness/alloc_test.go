package harness

import (
	"runtime"
	"testing"

	"powerchief/internal/app"
	"powerchief/internal/core"
	"powerchief/internal/workload"
)

// perQuery runs fn and returns what it allocated per query it completed.
func perQuery(t *testing.T, fn func() (completed uint64, err error)) (allocs, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	completed, err := fn()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if completed < 1000 {
		t.Fatalf("only %d queries completed; the per-query figures need a full run", completed)
	}
	queries := float64(completed)
	allocs = float64(after.Mallocs-before.Mallocs) / queries
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / queries
	t.Logf("%d queries: %.2f allocs, %.0f B per query", completed, allocs, bytes)
	return allocs, bytes
}

// TestAllocationsPerSimulatedQuery guards the DES data plane's allocation
// budget on the Table 2 Sirius run at medium load under PowerChief — the
// scenario the repository benchmark's des.allocs_per_query probe measures.
// A query costs the heap nothing of its own: the generator recycles the
// Query, its work matrix and its records, and the run allocates only as many
// as it ever has in flight at once. What is left is the statistics windows'
// growth, the control ticks and set-up, spread over the run's queries; the
// engine, the instances and the generator add nothing per query. The
// ceilings are what the run reads (2.06 / 205 B) plus 15 %: one allocation
// more per query fails the guard.
func TestAllocationsPerSimulatedQuery(t *testing.T) {
	sc := mitigationScenario(app.Sirius(), "alloc-guard", workload.Medium,
		func() core.Policy { return core.NewPowerChief(core.DefaultConfig()) }, 7)
	allocs, bytes := perQuery(t, func() (uint64, error) {
		res, err := Run(sc)
		if err != nil {
			return 0, err
		}
		return res.Completed, nil
	})
	if allocs > 2.4 {
		t.Errorf("%.2f allocations per simulated query, budget 2.4", allocs)
	}
	if bytes > 240 {
		t.Errorf("%.0f bytes allocated per simulated query, budget 240", bytes)
	}
}

// TestAllocationsPerSimulatedQueryMultiTenant is the same guard for RunMulti
// on the recorded two-tenant benchmark under the arbiter the repository
// benchmark runs it with: each tenant's generator recycles its own queries.
// The ceilings are what the run reads (1.74 / 256 B) plus 15 %.
func TestAllocationsPerSimulatedQueryMultiTenant(t *testing.T) {
	sc := BenchTenantScenario(7)
	sc.Arbiter = proportionalArbiter
	allocs, bytes := perQuery(t, func() (uint64, error) {
		res, err := RunMulti(sc)
		if err != nil {
			return 0, err
		}
		return uint64(res.Combined.Count()), nil
	})
	if allocs > 2.0 {
		t.Errorf("%.2f allocations per simulated query, budget 2.0", allocs)
	}
	if bytes > 295 {
		t.Errorf("%.0f bytes allocated per simulated query, budget 295", bytes)
	}
}
