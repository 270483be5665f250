package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"powerchief/internal/fault"
	"powerchief/internal/wire/wiretest"
)

// payload strips the length prefix off a successfully encoded frame.
func payload(frame []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return frame[4:]
}

// TestParseFrameRejects: everything that is not a well-formed frame of the
// expected kind is an error — the connection-level failure that keeps a peer
// speaking another protocol, or another version of this one, from being
// half-understood.
func TestParseFrameRejects(t *testing.T) {
	valid := payload(appendFrame(nil, kindRequest, 9, addArgs{1, 2}, "add"))
	var method []byte
	if id, body, err := parseFrame(valid, kindRequest, &method); err != nil || id != 9 || string(method) != "add" || body.tag != bodyJSON {
		t.Fatalf("valid frame: id %d method %q tag %d err %v", id, method, body.tag, err)
	}
	withTag := func(tag byte) []byte {
		f := append([]byte(nil), valid...)
		f[len(f)-len(`{"A":1,"B":2}`)-1] = tag
		return f
	}
	for name, bad := range map[string][]byte{
		"empty":             {},
		"old JSON request":  []byte(`{"id":1,"method":"add","params":{"A":1,"B":2}}`),
		"a response":        payload(appendFrame(nil, kindResponse, 9, 3, "", "")),
		"a future version":  append([]byte{2<<4 | 1}, valid[1:]...),
		"unknown body tag":  withTag(bodyWire + 1),
		"bytes after none":  withTag(bodyNone),
		"cut in the method": valid[:4],
		"cut before tag":    valid[:len(valid)-len(`{"A":1,"B":2}`)-1],
	} {
		if _, _, err := parseFrame(bad, kindRequest, &method); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestForeignPeerFailsTheConnection: a server fed an old JSON frame hangs up,
// and a client answered with one is broken with an error that says why.
func TestForeignPeerFailsTheConnection(t *testing.T) {
	old := []byte(`{"id":1,"result":5}`)
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(old))), old...)

	_, addr := newTestServer(t)
	conn := dialRaw(t, addr)
	conn.Write(frame)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("server kept the connection after a JSON frame: %v", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Read(make([]byte, 512)) // the request
		conn.Write(frame)
		io.Copy(io.Discard, conn)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.CallDeadline("add", addArgs{1, 2}, nil, 5*time.Second)
	if !errors.Is(err, ErrBroken) || !strings.Contains(err.Error(), "binary protocol") {
		t.Errorf("call answered by a JSON peer = %v, want ErrBroken naming the protocol", err)
	}
}

// TestUnsendableRequestFailsOnlyItsCall: arguments that exceed MaxMessageSize
// or do not encode fail before a byte is written — with an error retrying
// cannot cure — and leave the connection to its other callers. (They used to
// reach the write path's error return and mark the whole client broken.)
func TestUnsendableRequestFailsOnlyItsCall(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, params := range map[string]any{
		"oversized":   strings.Repeat("x", MaxMessageSize),
		"unencodable": map[string]any{"ch": make(chan int)},
	} {
		err := c.Call("echo", params, nil)
		if err == nil || IsTransient(err) {
			t.Errorf("%s request: err = %v, want a non-transient error", name, err)
		}
		var sum int
		if c.Broken() {
			t.Errorf("%s request broke the client for everyone", name)
		} else if err := c.Call("add", addArgs{2, 3}, &sum); err != nil || sum != 5 {
			t.Errorf("call after the %s request = %d, %v", name, sum, err)
		}
	}
}

// TestUnsendableResultAnsweredWithError: a result too large to frame is
// answered with an error response. (It used to be dropped, leaving a caller
// without a deadline waiting forever.)
func TestUnsendableResultAnsweredWithError(t *testing.T) {
	s := NewServer()
	HandleFunc(s, "huge", func(struct{}) (string, error) { return strings.Repeat("x", MaxMessageSize), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr) // no CallTimeout
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Call("huge", nil, new(string)) }()
	select {
	case err := <-done:
		var se *ServerError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "exceeds limit") {
			t.Errorf("oversized result: err = %v, want the server's size error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversized result was dropped: the caller is still waiting")
	}
}

// serveStream runs a server-side connection over an in-memory pipe, writes
// stream into it, hangs up, and returns once the connection's goroutine has.
func serveStream(s *Server, stream []byte) {
	client, server := net.Pipe()
	done := make(chan struct{})
	s.wg.Add(1)
	go func() { s.serveConn(server); close(done) }()
	go func() { client.Write(stream); client.Close() }()
	io.Copy(io.Discard, client) // responses, until either side hangs up
	<-done
}

// TestAnnouncedLengthAllocatesNothing: four header bytes announcing the
// largest legal frame, and then silence, cost the server one read chunk — not
// the 16 MiB the length asks for.
func TestAnnouncedLengthAllocatesNothing(t *testing.T) {
	s := NewServer()
	defer s.Close()
	hdr := binary.BigEndian.AppendUint32(nil, MaxMessageSize)
	if got := wiretest.Allocated(func() { serveStream(s, hdr) }); got > 4*readChunk {
		t.Errorf("a bare 16 MiB length prefix made the server allocate %d bytes", got)
	}
}

// FuzzFrame throws arbitrary bytes at the frame layer: at both parsers, and
// down a live server connection twice — once framed (the bytes are a
// payload), once raw (their first four are a length). Nothing may panic, and
// nothing may allocate out of proportion to the bytes that actually arrived.
func FuzzFrame(f *testing.F) {
	f.Add(payload(appendFrame(nil, kindRequest, 1, addArgs{1, 2}, "add")))
	f.Add(payload(appendFrame(nil, kindRequest, 2, procArgs{QueryID: 7, Work: []time.Duration{time.Millisecond}}, "process")))
	f.Add(payload(appendFrame(nil, kindRequest, 3, nil, "nope")))
	f.Add(payload(appendFrame(nil, kindResponse, 1, 5, "", "")))
	f.Add(payload(appendFrame(nil, kindResponse, 2, nil, "rejected: stage down", fault.Code(fault.ErrStageDown))))
	f.Add([]byte(`{"id":1,"method":"add"}`))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxMessageSize))

	s := NewServer()
	f.Cleanup(func() { s.Close() })
	HandleFunc(s, "add", func(a addArgs) (int, error) { return a.A + a.B, nil })
	HandleFunc(s, "process", func(a procArgs) (procReply, error) { return procReply{Records: make([]procRecord, len(a.Work))}, nil })

	f.Fuzz(func(t *testing.T, data []byte) {
		var method, msg, code []byte
		parseFrame(data, kindRequest, &method)
		parseFrame(data, kindResponse, &msg, &code)

		framed := append(binary.BigEndian.AppendUint32(nil, uint32(len(data))), data...)
		if got, max := wiretest.Allocated(func() { serveStream(s, framed); serveStream(s, data) }), uint64(64*len(data)+(1<<20)); got > max {
			t.Errorf("%d bytes made the server allocate %d, bound %d", len(data), got, max)
		}
	})
}
