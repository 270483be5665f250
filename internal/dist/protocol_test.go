package dist

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type, and
// returns it — the path a JSON body takes through internal/rpc. (The hand-
// encoded bodies have their own round-trip property in wire_test.go; they
// stay here because their JSON form must keep agreeing with it.)
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(data, out.Interface()); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	return out.Elem().Interface()
}

// Every message type of the stage-service RPC surface survives a JSON
// encode/decode round trip unchanged.
func TestProtocolRoundTripAllMessages(t *testing.T) {
	msgs := []any{
		ProcessArgs{QueryID: 42, Work: []time.Duration{120 * time.Millisecond, 80 * time.Millisecond}},
		ProcessArgs{QueryID: 43, Work: []time.Duration{time.Millisecond}, Trace: true},
		IngestArgs{Batch: 64, IntervalNS: int64(50 * time.Millisecond)},
		ProcessReply{Delta: testDelta()},
		ProcessReply{Records: []RecordWire{
			{
				Instance:   "QA_1",
				Stage:      "QA",
				QueueEnter: 5 * time.Millisecond,
				ServeStart: 12 * time.Millisecond,
				ServeEnd:   150 * time.Millisecond,
				Level:      7,
				Boosted:    true,
			},
			{Instance: "QA_2", Stage: "QA", ServeEnd: time.Second},
		}},
		StatsReply{Instances: []InstanceStats{
			{Name: "ASR_1", QueueLen: 3, Level: cmp.Level(4), Utilization: 0.62},
			{Name: "ASR_2"},
		}},
		SetLevelArgs{Instance: "IMM_1", Level: cmp.MaxLevel},
		CloneArgs{Instance: "QA_1"},
		CloneReply{Name: "QA_2", Level: cmp.Level(3)},
		WithdrawArgs{Instance: "QA_3", Target: "QA_1"},
		WithdrawArgs{Instance: "QA_3"},
		InfoReply{Name: "QA", CanScale: true, MemBound: 0.25},
	}
	for _, msg := range msgs {
		if got := roundTrip(t, msg); !reflect.DeepEqual(got, msg) {
			t.Errorf("%T round trip: got %+v, want %+v", msg, got, msg)
		}
	}
}

// The wire form and the engine-internal query.Record convert losslessly in
// both directions, including the telemetry DVFS fields.
func TestRecordWireConversion(t *testing.T) {
	rec := query.Record{
		Query:      query.ID(9),
		Stage:      "NLU",
		Instance:   "NLU_2",
		QueueEnter: 3 * time.Millisecond,
		ServeStart: 10 * time.Millisecond,
		ServeEnd:   90 * time.Millisecond,
		Level:      5,
		Boosted:    true,
	}
	wire := fromRecord(rec)
	back := wire.toRecord(query.ID(9))
	if !reflect.DeepEqual(back, rec) {
		t.Errorf("record conversion: got %+v, want %+v", back, rec)
	}
}

// The JSON form of a record decodes the DVFS fields.
func TestRecordWireDecodesNewFrame(t *testing.T) {
	data := `{"instance":"QA_1","stage":"QA","serve_end":9000000,"level":6,"boosted":true}`
	var wire RecordWire
	if err := json.Unmarshal([]byte(data), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Level != 6 || !wire.Boosted {
		t.Errorf("new frame decode: got level=%d boosted=%v, want 6/true", wire.Level, wire.Boosted)
	}
}
