package rpc

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/wire"
)

// procArgs / procReply are shaped like dist.ProcessArgs / ProcessReply (this
// package cannot import dist): an id and a work row in, one latency record
// out, hand-encoded. Their JSON hooks are tripwires — a binary-bodied call
// that reaches encoding/json on either side counts in jsonTrips.
type procArgs struct {
	QueryID uint64
	Work    []time.Duration
}

type procRecord struct {
	Instance, Stage                  string
	QueueEnter, ServeStart, ServeEnd time.Duration
}

type procReply struct{ Records []procRecord }

var jsonTrips atomic.Int64

func (a procArgs) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(wire.AppendUvarint(b, a.QueryID), uint64(len(a.Work)))
	for _, w := range a.Work {
		b = wire.AppendVarint(b, int64(w))
	}
	return b
}

func (a *procArgs) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	a.QueryID, a.Work = r.Uvarint(), wire.Make[time.Duration](r, 1)
	for i := range a.Work {
		a.Work[i] = time.Duration(r.Varint())
	}
	return r.Done()
}

func (p procReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(p.Records)))
	for _, rec := range p.Records {
		b = wire.AppendString(wire.AppendString(b, rec.Instance), rec.Stage)
		b = wire.AppendVarint(wire.AppendVarint(wire.AppendVarint(b, int64(rec.QueueEnter)), int64(rec.ServeStart)), int64(rec.ServeEnd))
	}
	return b
}

func (p *procReply) DecodeWire(b []byte) error {
	r := wire.NewReader(b)
	p.Records = wire.Make[procRecord](r, 5)
	for i := range p.Records {
		p.Records[i] = procRecord{r.String(), r.String(), time.Duration(r.Varint()), time.Duration(r.Varint()), time.Duration(r.Varint())}
	}
	return r.Done()
}

func tripped() ([]byte, error)                 { jsonTrips.Add(1); return nil, errors.New("json reached") }
func (procArgs) MarshalJSON() ([]byte, error)  { return tripped() }
func (procReply) MarshalJSON() ([]byte, error) { return tripped() }
func (*procArgs) UnmarshalJSON([]byte) error   { _, err := tripped(); return err }
func (*procReply) UnmarshalJSON([]byte) error  { _, err := tripped(); return err }

type blob struct {
	Data string `json:"data"`
}

// loopback serves the benchmark's two methods and returns a connected client.
func loopback(tb testing.TB) *Client {
	tb.Helper()
	s := NewServer()
	HandleFunc(s, "process", func(a procArgs) (procReply, error) {
		return procReply{Records: []procRecord{{
			Instance: "QA_1", Stage: "QA",
			QueueEnter: time.Duration(a.QueryID), ServeStart: a.Work[0], ServeEnd: 2 * a.Work[0],
		}}}, nil
	})
	HandleFunc(s, "echo", func(m blob) (blob, error) { return m, nil })
	HandleFunc(s, "ack", func(a procArgs) (struct{}, error) { return struct{}{}, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close(); s.Close() })
	return c
}

func processCall(tb testing.TB, c *Client) func() {
	args := procArgs{QueryID: 42, Work: []time.Duration{1500 * time.Microsecond}}
	return func() {
		var reply procReply
		if err := c.CallDeadline("process", args, &reply, time.Minute); err != nil {
			tb.Fatal(err)
		}
		if len(reply.Records) != 1 || reply.Records[0].ServeEnd != 3*time.Millisecond {
			tb.Fatalf("reply = %+v", reply)
		}
	}
}

// BenchmarkCall is one loopback round trip, client and server in this
// process: wire is a stage.process-shaped call with hand-encoded bodies under
// a deadline, as dist.Center.Submit issues it; json and json16k carry a
// generic JSON body, as the repository benchmark's rpc probes do. On the
// 2-vCPU host of EXPERIMENTS.md, -cpu=1: wire 7.8 µs / 14 allocs, json
// 12.4 µs / 18, json16k 181 µs / 18 — 25.8 µs / 57, 26.4 µs / 45 and
// 455 µs / 45 on the JSON-in-JSON envelope with its two writes per frame.
func BenchmarkCall(b *testing.B) {
	c := loopback(b)
	echo := func(size int) func() {
		msg := blob{Data: strings.Repeat("x", size)}
		return func() {
			var reply blob
			if err := c.Call("echo", msg, &reply); err != nil || len(reply.Data) != size {
				b.Fatal(len(reply.Data), err)
			}
		}
	}
	for _, bc := range []struct {
		name string
		call func()
	}{{"wire", processCall(b, c)}, {"json", echo(200)}, {"json16k", echo(16 << 10)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.call()
			}
		})
	}
}

// TestAllocationsPerCall guards the binary round trip beside the DES and
// control-tick guards (internal/harness, internal/core): client and server
// together allocate 14 times per stage.process-shaped call (17 under the
// race detector, which thins sync.Pool; the JSON envelope cost 57) — and
// neither side reaches encoding/json, on a reply body or on the bodiless
// struct{} acknowledgement of a grant or a delta push.
func TestAllocationsPerCall(t *testing.T) {
	c := loopback(t)
	call := processCall(t, c)
	call() // warm the frame pool and the connection's buffers
	if got := testing.AllocsPerRun(200, call); got > 20 {
		t.Errorf("a binary-bodied round trip allocates %.1f times, ceiling 20", got)
	}
	// A JSON "{}" for the struct{} result would trip procReply's decoder.
	if err := c.Call("ack", procArgs{QueryID: 1}, new(procReply)); err != nil {
		t.Fatal(err)
	}
	if n := jsonTrips.Load(); n != 0 {
		t.Errorf("binary-bodied calls reached encoding/json %d times", n)
	}
}
