package harness

import (
	"fmt"
	"runtime"
	"sync"
)

// RunAll executes the scenarios concurrently, bounded by GOMAXPROCS, and
// returns their results in input order. Each scenario owns a private
// discrete-event engine and rng seeded from the scenario itself, so the
// results are bit-identical to running them sequentially — parallelism here
// only buys wall time, which is what lets cmd/experiments regenerate the
// whole evaluation section in a fraction of the sequential cost. The first
// scenario error aborts nothing else but is returned (with its scenario
// name) after all runs finish.
func RunAll(scs []Scenario) ([]*Result, error) {
	results := make([]*Result, len(scs))
	errs := make([]error, len(scs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range scs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = runScenario(scs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: scenario %q: %w", scs[i].Name, err)
		}
	}
	return results, nil
}
