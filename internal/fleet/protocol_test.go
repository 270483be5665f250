package fleet

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"powerchief/internal/arbiter"
	"powerchief/internal/cmp"
	"powerchief/internal/rpc"
	"powerchief/internal/stats"
	"powerchief/internal/wire/wiretest"
)

func randReport(rng *rand.Rand) Report {
	rep := Report{
		Node: []string{"", "n1", "node-117"}[rng.Intn(3)], Epoch: rng.Uint64() >> uint(rng.Intn(64)),
		Metric: time.Duration(rng.Int63n(int64(time.Minute))), Draw: cmp.Watts(rng.Float64() * 100), Budget: cmp.Watts(rng.Intn(200)),
	}
	for i := rng.Intn(4); i > 0; i-- {
		rep.Stages = append(rep.Stages, arbiter.StageMetric{Stage: []string{"ingress", "compute"}[rng.Intn(2)], Metric: time.Duration(rng.Int63n(1e9))})
	}
	if rng.Intn(2) == 0 {
		acc := stats.NewDeltaAccumulator(0, 0)
		acc.FoldQuery(time.Millisecond, time.Duration(1+rng.Intn(1e6)))
		rep.Ingest = acc.Flush(time.Millisecond)
	}
	return rep
}

// TestReportWireBackCompat: a scalar-only node — no per-stage breakdown, no
// ingest — reports in the binary body with both absent (a zero count and an
// absent-delta byte end it) and decodes into nil for both, so the coordinator
// keeps weighting it by its scalar metric.
func TestReportWireBackCompat(t *testing.T) {
	scalar := Report{Node: "n1", Epoch: 7, Metric: 250 * time.Millisecond, Draw: 30, Budget: 40}
	body := wiretest.RoundTrip(t, scalar)
	if tail := body[len(body)-2:]; tail[0] != 0 || tail[1] != 0 {
		t.Fatalf("scalar report does not end in an empty breakdown and an absent delta: %x", body)
	}
	var decoded Report
	if err := decoded.DecodeWire(body); err != nil {
		t.Fatal(err)
	}
	if decoded.Stages != nil || decoded.Ingest != nil {
		t.Fatalf("scalar report decoded with a breakdown or a delta: %+v", decoded)
	}
}

// TestFleetWireRoundTrip: the heartbeat's two codecs carry their messages
// exactly, and every strict prefix of a valid body is an error.
func TestFleetWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	wiretest.RoundTrip(t, Report{})
	wiretest.RoundTrip(t, Grant{})
	for i := 0; i < 50; i++ {
		wiretest.RoundTrip(t, randReport(rng))
		wiretest.RoundTrip(t, Grant{Watts: cmp.Watts(rng.Float64() * 1000), Epoch: rng.Uint64() >> uint(rng.Intn(64))})
	}
}

func FuzzReport(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	f.Add(Report{}.AppendWire(nil))
	for i := 0; i < 4; i++ {
		f.Add(randReport(rng).AppendWire(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Fuzz[Report](t, data) })
}

func FuzzGrant(f *testing.F) {
	f.Add(Grant{Watts: 12.5, Epoch: 9}.AppendWire(nil))
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Fuzz[Grant](t, data) })
}

// The heartbeat messages without their codecs, carried as JSON bodies.
type (
	jsonReport Report
	jsonGrant  Grant
)

// TestJSONAndBinaryBodiesAgree: node.report and node.grant served on the
// real types and on their codec-less twins see the same arguments and return
// the same results, whichever body carries them.
func TestJSONAndBinaryBodiesAgree(t *testing.T) {
	rep := randReport(rand.New(rand.NewSource(37)))
	grant := Grant{Watts: 41.25, Epoch: 12}
	srv := rpc.NewServer()
	seen := func(method string, g Grant) error {
		if g != grant {
			t.Errorf("%s handler saw %+v, want %+v", method, g, grant)
		}
		return nil
	}
	rpc.HandleFunc(srv, "report", func(struct{}) (Report, error) { return rep, nil })
	rpc.HandleFunc(srv, "report.json", func(struct{}) (jsonReport, error) { return jsonReport(rep), nil })
	rpc.HandleFunc(srv, "grant", func(g Grant) (struct{}, error) { return struct{}{}, seen("grant", g) })
	rpc.HandleFunc(srv, "grant.json", func(g jsonGrant) (struct{}, error) { return struct{}{}, seen("grant.json", Grant(g)) })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var viaWire Report
	var viaJSON jsonReport
	for _, call := range []struct {
		method         string
		params, result any
	}{{"report", nil, &viaWire}, {"report.json", nil, &viaJSON}, {"grant", grant, nil}, {"grant.json", jsonGrant(grant), nil}} {
		if err := c.Call(call.method, call.params, call.result); err != nil {
			t.Fatalf("%s: %v", call.method, err)
		}
	}
	if !reflect.DeepEqual(viaWire, rep) || !reflect.DeepEqual(Report(viaJSON), rep) {
		t.Errorf("reports differ:\nbinary %+v\n  json %+v\n  want %+v", viaWire, viaJSON, rep)
	}
}

// TestReportCarriesStageBreakdown round-trips the per-stage Equation 1
// breakdown through the report's binary body.
func TestReportCarriesStageBreakdown(t *testing.T) {
	rep := Report{
		Node: "n2", Epoch: 3, Metric: time.Second, Draw: 10, Budget: 20,
		Stages: []arbiter.StageMetric{
			{Stage: "ingress", Metric: 400 * time.Millisecond},
			{Stage: "compute", Metric: time.Second},
		},
	}
	var back Report
	if err := back.DecodeWire(rep.AppendWire(nil)); err != nil {
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
