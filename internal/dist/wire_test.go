package dist

import (
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/rpc"
	"powerchief/internal/stats"
	"powerchief/internal/wire/wiretest"
)

// testDelta is a delta as a stage service flushes it.
func testDelta() *stats.Delta {
	acc := stats.NewDeltaAccumulator(8, time.Second)
	acc.FoldRecord(time.Millisecond, "QA_1", "QA", time.Millisecond, 2*time.Millisecond)
	acc.FoldRecord(time.Millisecond, "QA_2", "QA", 0, 40*time.Microsecond)
	acc.FoldCompletion(time.Millisecond)
	return acc.Flush(time.Millisecond)
}

func randDuration(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Int63()>>uint(rng.Intn(63))) - time.Duration(rng.Intn(2))
}

func randProcessArgs(rng *rand.Rand) ProcessArgs {
	a := ProcessArgs{QueryID: rng.Uint64() >> uint(rng.Intn(64)), Trace: rng.Intn(2) == 0}
	for i := rng.Intn(4); i > 0; i-- {
		a.Work = append(a.Work, randDuration(rng))
	}
	return a
}

func randProcessReply(rng *rand.Rand) ProcessReply {
	var p ProcessReply
	for i := rng.Intn(4); i > 0; i-- {
		p.Records = append(p.Records, RecordWire{
			Instance: []string{"", "QA_1", "ASR_12"}[rng.Intn(3)], Stage: []string{"QA", "ASR"}[rng.Intn(2)],
			QueueEnter: randDuration(rng), ServeStart: randDuration(rng), ServeEnd: randDuration(rng),
			Level: rng.Intn(14) - 1, Boosted: rng.Intn(2) == 0,
		})
	}
	if rng.Intn(2) == 0 {
		p.Delta = testDelta()
	}
	return p
}

func randStatsReply(rng *rand.Rand) StatsReply {
	var s StatsReply
	for i := rng.Intn(5); i > 0; i-- {
		s.Instances = append(s.Instances, InstanceStats{
			Name: []string{"", "IMM_3"}[rng.Intn(2)], QueueLen: rng.Intn(100),
			Level: cmp.Level(rng.Intn(13)), Utilization: rng.Float64(),
		})
	}
	if rng.Intn(2) == 0 {
		s.Delta = testDelta()
	}
	return s
}

// TestWireRoundTrip: each hand-written codec carries its message exactly —
// encode, decode, reflect.DeepEqual — and turns every strict prefix of a
// valid body into an error.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wiretest.RoundTrip(t, ProcessArgs{})
	wiretest.RoundTrip(t, ProcessReply{})
	wiretest.RoundTrip(t, StatsReply{})
	for i := 0; i < 50; i++ {
		wiretest.RoundTrip(t, randProcessArgs(rng))
		wiretest.RoundTrip(t, randProcessReply(rng))
		wiretest.RoundTrip(t, randStatsReply(rng))
	}
}

func FuzzProcessArgs(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	f.Add(ProcessArgs{}.AppendWire(nil))
	f.Add(ProcessArgs{QueryID: 7, Work: []time.Duration{time.Millisecond}, Trace: true}.AppendWire(nil))
	f.Add(randProcessArgs(rng).AppendWire(nil))
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff, 0x0f, 2}) // 4 G work entries announced, one sent
	f.Add([]byte{7, 1, 2, 2})                         // a trace byte that is neither 0 nor 1
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Fuzz[ProcessArgs](t, data) })
}

func FuzzProcessReply(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	f.Add(ProcessReply{Delta: testDelta()}.AppendWire(nil))
	for i := 0; i < 4; i++ {
		f.Add(randProcessReply(rng).AppendWire(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Fuzz[ProcessReply](t, data) })
}

func FuzzStatsReply(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	f.Add(StatsReply{Delta: testDelta()}.AppendWire(nil))
	for i := 0; i < 4; i++ {
		f.Add(randStatsReply(rng).AppendWire(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Fuzz[StatsReply](t, data) })
}

// The same messages without their codecs: defined types drop the methods, so
// internal/rpc carries them as JSON bodies.
type (
	jsonProcessArgs  ProcessArgs
	jsonProcessReply ProcessReply
	jsonStatsReply   StatsReply
	jsonDelta        stats.Delta
)

// TestJSONAndBinaryBodiesAgree serves each hot method twice — once on the
// real message types, once on their codec-less twins — and requires a call
// with a binary body and a call with a JSON body to see the same arguments
// and return the same result.
func TestJSONAndBinaryBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	args, reply, snapshot, delta := randProcessArgs(rng), randProcessReply(rng), randStatsReply(rng), testDelta()
	args.Trace, reply.Delta, snapshot.Delta = true, testDelta(), testDelta()

	srv := rpc.NewServer()
	check := func(method string, got, want any) error {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s handler saw %+v, want %+v", method, got, want)
		}
		return nil
	}
	rpc.HandleFunc(srv, "process", func(a ProcessArgs) (ProcessReply, error) { return reply, check("process", a, args) })
	rpc.HandleFunc(srv, "process.json", func(a jsonProcessArgs) (jsonProcessReply, error) {
		return jsonProcessReply(reply), check("process.json", ProcessArgs(a), args)
	})
	rpc.HandleFunc(srv, "stats", func(struct{}) (StatsReply, error) { return snapshot, nil })
	rpc.HandleFunc(srv, "stats.json", func(struct{}) (jsonStatsReply, error) { return jsonStatsReply(snapshot), nil })
	rpc.HandleFunc(srv, "delta", func(d stats.Delta) (struct{}, error) { return struct{}{}, check("delta", d, *delta) })
	rpc.HandleFunc(srv, "delta.json", func(d jsonDelta) (struct{}, error) {
		return struct{}{}, check("delta.json", stats.Delta(d), *delta)
	})
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

	var p ProcessReply
	var pj jsonProcessReply
	var s StatsReply
	var sj jsonStatsReply
	for _, call := range []struct {
		method         string
		params, result any
	}{
		{"process", args, &p}, {"process.json", jsonProcessArgs(args), &pj},
		{"stats", nil, &s}, {"stats.json", nil, &sj},
		{"delta", delta, nil}, {"delta.json", (*jsonDelta)(delta), nil},
	} {
		if err := c.Call(call.method, call.params, call.result); err != nil {
			t.Fatalf("%s: %v", call.method, err)
		}
	}
	if !reflect.DeepEqual(p, reply) || !reflect.DeepEqual(ProcessReply(pj), reply) {
		t.Errorf("process replies differ:\nbinary %+v\n  json %+v\n  want %+v", p, pj, reply)
	}
	if !reflect.DeepEqual(s, snapshot) || !reflect.DeepEqual(StatsReply(sj), snapshot) {
		t.Errorf("stats replies differ:\nbinary %+v\n  json %+v\n  want %+v", s, sj, snapshot)
	}
}

// readRawFrame reads one length-prefixed frame off conn, header included.
func readRawFrame(conn net.Conn) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame := make([]byte, 4, 256)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	frame = frame[:4+binary.BigEndian.Uint32(frame)]
	_, err := io.ReadFull(conn, frame[4:])
	return frame, err
}

// TestProcessGoldenFrames pins the wire layout (DESIGN.md §5j) on one
// stage.process exchange, byte for byte, on both sides: what a Client writes
// for the call and reads from the reply, and what a Server reads from the
// call and writes for the reply.
func TestProcessGoldenFrames(t *testing.T) {
	const (
		// length, kind, id, "stage.process", tag, query id, 2 work entries: 1.5 ms, 250 µs, trace bit
		goldenCall = "0000001b" + "11" + "01" + "0d73746167652e70726f63657373" + "02" + "07" + "02" + "c08db701" + "a0c21e" + "01"
		// length, kind, id, no error, no code, tag, 1 record: "QA_1", "QA", 1 ms, 2 ms, 9 ms, level 6, boosted; no delta
		goldenReply = "0000001c" + "12" + "01" + "00" + "00" + "02" + "01" + "0451415f31" + "025141" + "80897a" + "8092f401" + "80d1ca08" + "0c" + "01" + "00"
	)
	args := ProcessArgs{QueryID: 7, Work: []time.Duration{1500 * time.Microsecond, 250 * time.Microsecond}, Trace: true}
	reply := ProcessReply{Records: []RecordWire{{
		Instance: "QA_1", Stage: "QA",
		QueueEnter: time.Millisecond, ServeStart: 2 * time.Millisecond, ServeEnd: 9 * time.Millisecond,
		Level: 6, Boosted: true,
	}}}
	callBytes, _ := hex.DecodeString(goldenCall)
	replyBytes, _ := hex.DecodeString(goldenReply)

	// Client side, against a raw socket that answers with the golden reply.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		frame, _ := readRawFrame(conn) // a short read shows as a wrong frame below
		sent <- frame
		conn.Write(replyBytes)
		io.Copy(io.Discard, conn) // hold the connection until the client closes it
	}()
	client, err := rpc.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var got ProcessReply
	err = client.CallDeadline(MethodProcess, args, &got, 5*time.Second)
	client.Close()
	if err != nil {
		t.Fatalf("call against the golden reply: %v", err)
	}
	if frame := hex.EncodeToString(<-sent); frame != goldenCall {
		t.Errorf("client wrote\n %s\nwant\n %s", frame, goldenCall)
	}
	if !reflect.DeepEqual(got, reply) {
		t.Errorf("client decoded %+v, want %+v", got, reply)
	}

	// Server side, fed the golden call over a raw socket.
	srv := rpc.NewServer()
	rpc.HandleFunc(srv, MethodProcess, func(a ProcessArgs) (ProcessReply, error) {
		if !reflect.DeepEqual(a, args) {
			t.Errorf("server decoded %+v, want %+v", a, args)
		}
		return reply, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(callBytes); err != nil {
		t.Fatal(err)
	}
	if frame, err := readRawFrame(conn); err != nil || hex.EncodeToString(frame) != goldenReply {
		t.Errorf("server wrote\n %x (%v)\nwant\n %s", frame, err, goldenReply)
	}
}
