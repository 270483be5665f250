package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setupFloorS is the absolute change below which setup_s never counts as a
// regression: the set-ups are 30 us to 7 ms, where a relative bound alone
// would trip on scheduling noise (ISSUE 12: "10 % or 0.2 s").
const setupFloorS = 0.2

// runCmp implements `bench cmp old.json new.json`: every end-to-end metric
// of every workload present in both files is compared against its bound in
// BENCHMARK.json. Exit 0 when nothing regressed, 1 on a regression or a
// failed output check in the new file, 2 when the files cannot be compared
// (different run length or seed). A pair whose own run-to-run spread — the
// quartile distance a -repeat file carries — exceeds the bound is printed as
// "unresolved": the files cannot tell a regression of that size from noise.
func runCmp(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench cmp old.json new.json")
		return 2
	}
	oldF, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench cmp:", err)
		return 2
	}
	newF, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench cmp:", err)
		return 2
	}
	if oldF.Seconds != newF.Seconds || oldF.Seed != newF.Seed {
		fmt.Fprintf(stderr, "bench cmp: the files hold different runs (%gs seed %d vs %gs seed %d)\n",
			oldF.Seconds, oldF.Seed, newF.Seconds, newF.Seed)
		return 2
	}
	if oldF.Provenance.Hostname != newF.Provenance.Hostname || oldF.Provenance.NumCPU != newF.Provenance.NumCPU {
		fmt.Fprintf(stdout, "warning: hosts differ (%s/%d cpus vs %s/%d cpus); timings are not comparable across hosts\n",
			oldF.Provenance.Hostname, oldF.Provenance.NumCPU, newF.Provenance.Hostname, newF.Provenance.NumCPU)
	}
	oldRuns := make(map[string]*RunResult)
	for _, r := range oldF.Runs {
		oldRuns[r.Workload] = r
	}
	compared, regressed, unresolved := 0, 0, 0
	for _, nr := range newF.Runs {
		or, ok := oldRuns[nr.Workload]
		if !ok || or.Traced != nr.Traced {
			continue
		}
		if !nr.Correct {
			fmt.Fprintf(stdout, "%-14s output checks failed: %d of %d\n", nr.Workload, nr.Failed, nr.Attempted)
			regressed++
		}
		for _, bm := range endToEnd {
			ov, ok1 := or.Metrics[bm.Name]
			nv, ok2 := nr.Metrics[bm.Name]
			if !ok1 || !ok2 {
				continue
			}
			if ov.Value == 0 {
				fmt.Fprintf(stdout, "%-14s %-12s old value is 0: no relative change to compare\n", nr.Workload, bm.Name)
				continue
			}
			compared++
			// worse is the relative change in the bad direction.
			worse := (nv.Value - ov.Value) / ov.Value
			if bm.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > bm.Bound && !(bm.Name == "setup_s" && nv.Value-ov.Value < setupFloorS):
				verdict = "REGRESSED"
				regressed++
			case spread(oldF, or, bm.Name) > bm.Bound || spread(newF, nr, bm.Name) > bm.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-14s %-12s %14.6g -> %14.6g %-5s %+7.2f%% (bound %.0f%%) %s\n",
				nr.Workload, bm.Name, ov.Value, nv.Value, nv.Unit, 100*worse, 100*bm.Bound, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "bench cmp: the files share no workload with end-to-end metrics")
		return 2
	}
	if unresolved > 0 {
		fmt.Fprintf(stdout, "%d pairs unresolved: their quartile distance over the repeated runs exceeds the bound\n", unresolved)
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// spread is (Q3 - Q1) / median of a metric over a -repeat file's runs; 0 for
// a single-run file, which carries no quartiles.
func spread(f *ResultFile, r *RunResult, metric string) float64 {
	q, ok := f.Quartiles[r.Workload][metric]
	if !ok || r.Metrics[metric].Value == 0 {
		return 0
	}
	return (q[1] - q[0]) / r.Metrics[metric].Value
}

func readResultFile(path string) (*ResultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}
