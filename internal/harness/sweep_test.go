package harness

import (
	"strings"
	"testing"
	"time"

	"powerchief/internal/app"
	"powerchief/internal/cmp"
	"powerchief/internal/workload"
)

func TestBudgetSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long scenario")
	}
	runs := rowRuns(t, "sweep", 7)
	byPolicy := map[string][]int{}
	keys := budgetSweep.keys(7)
	for i, k := range keys {
		byPolicy[k.Policy] = append(byPolicy[k.Policy], i)
	}
	if len(byPolicy["baseline"]) != len(byPolicy["powerchief"]) {
		t.Fatal("asymmetric sweep")
	}
	avg := func(i int) time.Duration { return runs[i].Latency.Mean() }
	// At every budget PowerChief's average latency is at most the
	// baseline's (small tolerance for stochastic ties at huge budgets).
	for n, b := range byPolicy["baseline"] {
		pc, budget := byPolicy["powerchief"][n], float64(keys[b].Budget)
		t.Logf("%.1fW: baseline %v vs powerchief %v", budget, avg(b), avg(pc))
		if float64(avg(pc)) > 1.15*float64(avg(b)) {
			t.Errorf("at %.1fW PowerChief (%v) worse than baseline (%v)", budget, avg(pc), avg(b))
		}
		// Budget invariant: average draw never exceeds the budget.
		if runs[pc].AvgPower > keys[pc].Budget+1e-6 {
			t.Errorf("at %.1fW PowerChief drew %.2fW", budget, float64(runs[pc].AvgPower))
		}
	}
	// Latency improves (weakly) as the budget grows, for both policies.
	for name, pts := range byPolicy {
		for i := 1; i < len(pts); i++ {
			if float64(avg(pts[i])) > 1.5*float64(avg(pts[i-1])) {
				t.Errorf("%s: latency rose sharply with more budget: %v → %v at %.1fW",
					name, avg(pts[i-1]), avg(pts[i]), float64(keys[pts[i]].Budget))
			}
		}
	}
	// PowerChief's advantage is largest at tight budgets.
	first := float64(avg(byPolicy["baseline"][0])) / float64(avg(byPolicy["powerchief"][0]))
	if first < 1.5 {
		t.Errorf("tight-budget improvement only %.2fx", first)
	}
}

func TestBudgetSweepInfeasible(t *testing.T) {
	s := sweep{app.Sirius(), workload.Low, []cmp.Watts{1}}
	if keys := s.keys(1); len(keys) != 0 || s.write(nil, capture(map[string]string{})) == nil {
		t.Errorf("all-infeasible sweep accepted: %d keys", len(keys))
	}
}

func TestWriteSweep(t *testing.T) {
	s := sweep{app.Sirius(), workload.High, []cmp.Watts{10}}
	files := map[string]string{}
	if err := s.write([]*Result{fakeRun(9.5, time.Second), fakeRun(9.5, time.Second)}, capture(files)); err != nil {
		t.Fatal(err)
	}
	if got := files["sweep.txt"]; !strings.Contains(got, "10.00W  powerchief  1s") {
		t.Errorf("sweep table = %q", got)
	}
}
