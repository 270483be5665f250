package fleet

import (
	"slices"
	"testing"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/fault"
	"powerchief/internal/telemetry"
)

// readmitFleet partitions node-0 of a three-node fleet sized so that its
// floor re-admission needs two donor cuts (neither survivor holds a whole
// floor above the floor), then heals it. It returns the harness and the
// survivors richest first.
func readmitFleet(t *testing.T) (*capHarness, []*capNode) {
	t.Helper()
	h := startCapFleet(t, Options{Budget: 35, Floor: 10, SuspectAfter: 2})
	h.epoch(t) // cold start
	h.nodes[0].partition(true)
	h.epoch(t) // suspect
	h.epoch(t) // quarantine, reclaim, survivors absorb the watts
	if got := h.coord.Healths()["node-0"]; got != fault.Down {
		t.Fatalf("node-0 health %v, want down", got)
	}
	g := h.coord.Granted()
	donors := []*capNode{h.nodes[1], h.nodes[2]}
	if g["node-1"] < g["node-2"] {
		donors[0], donors[1] = donors[1], donors[0]
	}
	if rich := g[donors[0].name]; rich-10 >= 10-1e-9 {
		t.Fatalf("test premise broken: %s holds %.2fW, one cut covers the floor", donors[0].name, float64(rich))
	}
	h.nodes[0].partition(false)
	return h, donors
}

// A donor failing its grant mid-plan rolls the cut already applied back: the
// returning node stays Recovering, the first donor holds its old grant and
// Σ granted never leaves the budget. The next epoch, with the donor
// answering again, re-admits the node.
func TestFleetReadmitRollsBackOnDonorFailure(t *testing.T) {
	h, donors := readmitFleet(t)
	before := h.coord.Granted()
	donors[1].mu.Lock()
	donors[1].refuseGrants = true
	donors[1].mu.Unlock()

	// A no-op policy: the epoch's grants are the re-admission's alone.
	if _, err := h.coord.Adjust(core.Static{}); err != nil {
		t.Fatal(err)
	}
	if got := h.coord.Healths()["node-0"]; got != fault.Recovering {
		t.Fatalf("node-0 health %v after a failed re-admission, want recovering", got)
	}
	after := h.coord.Granted()
	if after[donors[0].name] != before[donors[0].name] {
		t.Errorf("%s grant %.4fW after rollback, want its %.4fW back",
			donors[0].name, float64(after[donors[0].name]), float64(before[donors[0].name]))
	}
	if after["node-0"] != 0 {
		t.Errorf("node-0 holds %.2fW without being re-admitted", float64(after["node-0"]))
	}
	if d := h.coord.Draw(); d > h.budget+1e-9 {
		t.Fatalf("Σ granted %.2fW over the %.2fW budget", float64(d), float64(h.budget))
	}
	rolledBack := false
	for _, e := range h.audit.Events() {
		rolledBack = rolledBack || e.Kind == telemetry.EventPlanRollback
	}
	if !rolledBack {
		t.Error("no plan-rollback event for the failed re-admission")
	}

	donors[1].mu.Lock()
	donors[1].refuseGrants = false
	donors[1].mu.Unlock()
	if _, err := h.coord.Adjust(core.Static{}); err != nil {
		t.Fatal(err)
	}
	if got := h.coord.Healths()["node-0"]; got != fault.Healthy {
		t.Fatalf("node-0 health %v once the donor answers, want healthy", got)
	}
	if g := h.coord.Granted()["node-0"]; !cmp.ApproxEqual(g, 10) {
		t.Errorf("node-0 re-admitted at %.2fW, want the 10W floor", float64(g))
	}
	if d := h.coord.Draw(); d > h.budget+1e-9 {
		t.Fatalf("Σ granted %.2fW over the %.2fW budget", float64(d), float64(h.budget))
	}
}

// A re-admission is audited like any plan: both donor cuts and the
// returnee's floor grant are set-budget events with detail "readmit", in
// plan order, ahead of the node-readmit transition.
func TestFleetReadmitIsAudited(t *testing.T) {
	h, donors := readmitFleet(t)
	mark := h.audit.LastSeq()
	if _, err := h.coord.Adjust(core.Static{}); err != nil {
		t.Fatal(err)
	}
	var grants []string
	readmitted := false
	for _, e := range h.audit.Since(mark) {
		switch e.Kind {
		case telemetry.EventSetBudget:
			if e.Detail != "readmit" {
				t.Errorf("set-budget %s detail %q, want readmit", e.Node, e.Detail)
			}
			if readmitted {
				t.Errorf("set-budget %s after the node-readmit event", e.Node)
			}
			grants = append(grants, e.Node)
		case telemetry.EventNodeReadmit:
			readmitted = true
		}
	}
	want := []string{donors[0].name, donors[1].name, "node-0"}
	if !slices.Equal(grants, want) {
		t.Fatalf("re-admission set-budget events %v, want %v", grants, want)
	}
	if !readmitted {
		t.Fatal("no node-readmit event")
	}
}
