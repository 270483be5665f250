package fleet

import (
	"encoding/json"
	"testing"
	"time"

	"powerchief/internal/arbiter"
)

// TestReportWireBackCompat pins the Stages field's interop contract: a
// scalar-only report marshals byte-identically to the pre-breakdown wire
// format (omitempty), and frames from old nodes — no "stages" key — decode
// into a nil breakdown.
func TestReportWireBackCompat(t *testing.T) {
	scalar := Report{Node: "n1", Epoch: 7, Metric: 250 * time.Millisecond, Draw: 30, Budget: 40}
	b, err := json.Marshal(scalar)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"node":"n1","epoch":7,"metric":250000000,"draw":30,"budget":40}`
	if string(b) != want {
		t.Fatalf("scalar report frame changed:\n got %s\nwant %s", b, want)
	}

	var decoded Report
	if err := json.Unmarshal([]byte(want), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Stages != nil {
		t.Fatalf("old frame decoded with a breakdown: %+v", decoded.Stages)
	}
	if decoded.Metric != scalar.Metric || decoded.Budget != scalar.Budget {
		t.Fatalf("old frame lost fields: %+v", decoded)
	}
}

// TestReportCarriesStageBreakdown round-trips the per-stage Equation 1
// breakdown through the wire format.
func TestReportCarriesStageBreakdown(t *testing.T) {
	rep := Report{
		Node: "n2", Epoch: 3, Metric: time.Second, Draw: 10, Budget: 20,
		Stages: []arbiter.StageMetric{
			{Stage: "ingress", Metric: 400 * time.Millisecond},
			{Stage: "compute", Metric: time.Second},
		},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages) != 2 || back.Stages[1].Stage != "compute" || back.Stages[1].Metric != time.Second {
		t.Fatalf("breakdown did not round-trip: %+v", back.Stages)
	}
}

// TestCoordinatorIngestsBreakdown proves the coordinator stores a node's
// forwarded breakdown (epoch-fenced, like the scalar metric) and exposes it
// through the arbiter.View Members.
func TestCoordinatorIngestsBreakdown(t *testing.T) {
	nowFn := func() time.Duration { return 0 }
	n := NewSimNode("node-0", nowFn, 1.5)
	coord, err := NewCoordinator(Options{Budget: 100, Floor: 10}, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Adjust(NewRebalance()); err != nil {
		t.Fatal(err)
	}
	// The first epoch granted; the second ingests a fenced report with the
	// breakdown attached.
	if _, err := coord.Adjust(NewRebalance()); err != nil {
		t.Fatal(err)
	}
	members := coord.Members()
	if len(members) != 1 || len(members[0].Breakdown) == 0 {
		t.Fatalf("Members missing breakdown: %+v", members)
	}
	if members[0].Breakdown[len(members[0].Breakdown)-1].Metric != members[0].Metric {
		t.Fatalf("bottleneck stage %v does not match scalar metric %v",
			members[0].Breakdown, members[0].Metric)
	}
}
