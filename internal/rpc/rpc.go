package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"powerchief/internal/fault"
	"powerchief/internal/wire"
)

// MaxMessageSize bounds a single frame (16 MiB), on write as on read: a
// larger request fails its call, a larger result is answered with an error,
// and a larger announced length aborts the connection.
const MaxMessageSize = 16 << 20

// The frame (DESIGN.md §5j) is a 4-byte big-endian length, then
//
//	request   kindRequest  | uvarint id | method | body tag | body
//	response  kindResponse | uvarint id | error | code | body tag | body
//
// with method, error and code as uvarint-length-prefixed strings. The kind
// byte carries the protocol version in its high nibble, so a peer speaking
// anything else — an old JSON frame starts with '{' — fails the connection.
const (
	kindRequest  byte = 1<<4 | 1
	kindResponse byte = 1<<4 | 2

	bodyNone byte = 0 // no body: nil params, a nil or struct{} result
	bodyJSON byte = 1 // encoding/json, for every type without a codec
	bodyWire byte = 2 // the type's own AppendWire / DecodeWire
)

// A type with this pair of methods travels as a binary body, reflection-free;
// the interfaces are structural so message packages need not import rpc.
// AppendWire appends the encoding to b; DecodeWire must copy what it keeps.
type (
	wireAppender interface{ AppendWire(b []byte) []byte }
	wireDecoder  interface{ DecodeWire(b []byte) error }
)

// errEncode marks a call whose arguments did not encode or fit a frame: it
// failed before a byte was written, and retrying cannot help.
var errEncode = errors.New("rpc: request not sent")

// Body is a call's still-encoded argument or result. It points into the
// connection's read buffer and is valid only until the handler returns.
type Body struct {
	tag  byte
	data []byte
}

// Decode decodes the body into v, a pointer; an absent body leaves v alone.
func (b Body) Decode(v any) error {
	switch b.tag {
	case bodyJSON:
		return json.Unmarshal(b.data, v)
	case bodyWire:
		d, ok := v.(wireDecoder)
		if !ok {
			return fmt.Errorf("rpc: binary body for %T, which has no DecodeWire", v)
		}
		return d.DecodeWire(b.data)
	}
	return nil
}

// frames recycles frame buffers; one that a large message grew is dropped
// instead, so that it does not stay pinned at that size.
var frames = sync.Pool{New: func() any { return new([]byte) }}

func putFrame(buf *[]byte) {
	if cap(*buf) <= readChunk {
		frames.Put(buf)
	}
}

// appendFrame encodes one whole frame into b[:0]: strs is the method of a
// request, the error and its fault code (both empty on success) of a
// response. MaxMessageSize is enforced here, before anything is written.
func appendFrame(b []byte, kind byte, id uint64, body any, strs ...string) ([]byte, error) {
	b = binary.AppendUvarint(append(b[:0], 0, 0, 0, 0, kind), id)
	for _, s := range strs {
		b = wire.AppendString(b, s)
	}
	switch v := body.(type) {
	case nil:
		b = append(b, bodyNone)
	case wireAppender:
		b = v.AppendWire(append(b, bodyWire))
	default:
		data, err := json.Marshal(v)
		if err != nil {
			return b, fmt.Errorf("rpc: encoding body: %w", err)
		}
		b = append(append(b, bodyJSON), data...)
	}
	if len(b)-4 > MaxMessageSize {
		return b, fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(b)-4)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

// readChunk is how far readFrame allocates ahead of the bytes that have
// arrived: an announced length is four cheap bytes, not a reason to allocate.
const readChunk = 64 << 10

// readFrame reads one frame's payload into buf, growing it as bytes arrive.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxMessageSize {
		return buf, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	r.Discard(4)
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// parseFrame splits a payload of the wanted kind into its id, its strings (as
// appendFrame takes them) and its body — all views into frame.
func parseFrame(frame []byte, kind byte, strs ...*[]byte) (id uint64, body Body, err error) {
	if len(frame) == 0 || frame[0] != kind {
		return 0, Body{}, fmt.Errorf("rpc: frame does not start with kind %#x: the peer does not speak this binary protocol", kind)
	}
	r := wire.NewReader(frame[1:])
	id = r.Uvarint()
	for _, s := range strs {
		*s = r.Bytes()
	}
	body.tag, body.data = r.Byte(), r.Rest()
	if r.Done() != nil || body.tag > bodyWire || (body.tag == bodyNone && len(body.data) > 0) {
		return 0, Body{}, fmt.Errorf("rpc: malformed frame (body tag %d)", body.tag)
	}
	return id, body, nil
}

// Handler serves one method: it decodes the request body (Body.Decode) and
// returns the result to encode, nil for none.
type Handler func(params Body) (any, error)

// Server dispatches framed requests to registered handlers. Each connection
// gets a reader goroutine; each request is handled on its own goroutine so a
// slow method does not block the connection.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler

	lnMu     sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler), conns: make(map[net.Conn]struct{})}
}

// Handle registers a method handler. Registering a duplicate method panics —
// it is always a programming error.
func (s *Server) Handle(method string, h Handler) {
	if method == "" || h == nil {
		panic("rpc: Handle requires a method name and handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic("rpc: duplicate handler for " + method)
	}
	s.handlers[method] = h
}

// HandleFunc registers a typed handler: fn takes the decoded params and
// returns the result. P and R travel binary when they have the AppendWire /
// DecodeWire pair and as JSON otherwise; a struct{} result sends no body.
func HandleFunc[P any, R any](s *Server, method string, fn func(P) (R, error)) {
	s.Handle(method, func(params Body) (any, error) {
		var p P
		if err := params.Decode(&p); err != nil {
			return nil, fmt.Errorf("rpc: bad params for %s: %w", method, err)
		}
		r, err := fn(p)
		if _, empty := any(r).(struct{}); empty || err != nil {
			return nil, err
		}
		return r, nil
	})
}

// Listen starts accepting connections on addr and returns the bound
// address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return "", errors.New("rpc: server closed")
	}
	s.listener = ln
	s.lnMu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var writeMu sync.Mutex
	for {
		buf := frames.Get().(*[]byte)
		var method []byte
		var err error
		if *buf, err = readFrame(r, *buf); err != nil {
			putFrame(buf)
			return
		}
		id, params, err := parseFrame(*buf, kindRequest, &method)
		if err != nil {
			putFrame(buf)
			return // not this protocol: drop the connection
		}
		s.mu.RLock()
		h := s.handlers[string(method)]
		s.mu.RUnlock()
		go func() {
			var result any
			var herr error
			if h == nil {
				herr = errors.New("rpc: unknown method " + string(method))
			} else {
				result, herr = h(params)
			}
			// The request is decoded; its buffer becomes the response's. A
			// result that does not encode or fit still answers the call, with
			// that error — its caller may have no deadline to wait out.
			var frame []byte
			if herr == nil {
				frame, herr = appendFrame(*buf, kindResponse, id, result, "", "")
			}
			if herr != nil {
				frame, _ = appendFrame(*buf, kindResponse, id, nil, herr.Error(), fault.Code(herr))
			}
			writeMu.Lock()
			_, _ = conn.Write(frame) // a dead connection ends the read loop above
			writeMu.Unlock()
			*buf = frame
			putFrame(buf)
		}()
	}
}

// Close stops the listener and all connections, waiting for in-flight
// handlers to finish.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return nil
}

// Sentinel transport errors. Both are connection-level conditions — a
// *ServerError, by contrast, is an application-level failure reported by a
// reachable, healthy peer.
var (
	// ErrTimeout marks a call that exceeded its deadline. The connection
	// stays open (a late response is discarded by ID), but callers should
	// treat repeated timeouts as a sign the peer is hung.
	ErrTimeout = errors.New("rpc: call timed out")
	// ErrBroken marks a client whose connection has failed; Redial restores
	// it.
	ErrBroken = errors.New("rpc: connection broken")
	// ErrClosed marks a client closed by its owner; it cannot be redialed.
	ErrClosed = errors.New("rpc: client closed")
)

// ServerError is an application error returned by the remote handler. It is
// never retried: the request reached the peer and was answered. Code carries
// the fault-sentinel wire code when the remote error wrapped one; Unwrap
// resolves it, so errors.Is(err, fault.ErrStageDown) holds across the wire.
type ServerError struct {
	Msg  string
	Code string
}

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// Unwrap restores sentinel identity from the wire code: the returned error
// is the registered fault sentinel, or nil for plain application errors and
// codes this build does not know.
func (e *ServerError) Unwrap() error { return fault.FromCode(e.Code) }

// IsTransient reports whether err is a transport-level failure — a timeout,
// a broken or closed connection, a dial or I/O error — for which retrying an
// idempotent call may succeed. Application errors (*ServerError) are not
// transient, and neither is a call whose arguments could not be encoded.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	return !errors.As(err, &se) && !errors.Is(err, errEncode)
}

// ClientOptions tunes a client's deadlines and retry behaviour.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds every Call unless overridden per call with
	// CallDeadline. Zero means no deadline (the seed behaviour).
	CallTimeout time.Duration
	// Retry governs CallRetry for idempotent methods.
	Retry RetryPolicy
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// callResult is what a pending call receives: a transport error, or the
// parsed response — views into frame, which the receiver returns to the pool.
type callResult struct {
	frame     *[]byte
	msg, code []byte // the handler's error and its fault code, empty on success
	result    Body
	err       error
}

// results recycles the one-slot channels calls wait on.
var results = sync.Pool{New: func() any { return make(chan callResult, 1) }}

// Client is a pipelined RPC client over one TCP connection. Safe for
// concurrent use. A connection failure marks the client broken — every
// pending and future call fails fast with ErrBroken — until Redial
// re-establishes it.
type Client struct {
	addr string
	opts ClientOptions

	writeMu sync.Mutex
	nextID  atomic.Uint64

	mu      sync.Mutex
	conn    net.Conn
	gen     int // bumped by Redial so a stale readLoop cannot break the new conn
	pending map[uint64]chan callResult
	err     error
	closed  bool
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, ClientOptions{DialTimeout: timeout})
}

// DialOptions connects with full client options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, opts: opts, conn: conn, pending: make(map[uint64]chan callResult)}
	go c.readLoop(conn, c.gen)
	return c, nil
}

// Broken reports whether the connection has failed (and the client is not
// closed). A broken client can be restored with Redial.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil && !c.closed
}

// Redial drops the broken connection and establishes a fresh one to the same
// address. Pending calls on the old connection have already failed; calls
// issued after Redial returns use the new connection. Redialing a healthy
// client replaces its connection. A closed client cannot be redialed.
func (c *Client) Redial() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	old := c.conn
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	// Abort anything still pending on the old connection, then swap.
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: fmt.Errorf("%w: replaced by redial", ErrBroken)}
	}
	c.conn = conn
	c.gen++
	gen := c.gen
	c.err = nil
	c.mu.Unlock()

	if old != nil {
		old.Close()
	}
	go c.readLoop(conn, gen)
	return nil
}

func (c *Client) readLoop(conn net.Conn, gen int) {
	r := bufio.NewReader(conn)
	for {
		res := callResult{frame: frames.Get().(*[]byte)}
		var id uint64
		var err error
		if *res.frame, err = readFrame(r, *res.frame); err == nil {
			id, res.result, err = parseFrame(*res.frame, kindResponse, &res.msg, &res.code)
		}
		if err != nil {
			putFrame(res.frame)
			c.fail(gen, fmt.Errorf("%w: %v", ErrBroken, err))
			return
		}
		c.mu.Lock()
		if gen != c.gen {
			c.mu.Unlock()
			putFrame(res.frame)
			return // a redial superseded this connection
		}
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- res
		} else {
			putFrame(res.frame) // the caller timed out
		}
	}
}

// fail aborts every pending call with err, provided gen still names the
// current connection (a stale readLoop must not break a redialed client).
func (c *Client) fail(gen int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || c.err != nil {
		return
	}
	if c.closed {
		err = ErrClosed // the read loop can notice Close's teardown before Close reports it
	}
	c.err = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: err}
	}
}

// send encodes the request in full, registers ch for its response and puts
// the frame on the connection with one Write. Encoding comes first: arguments
// that do not encode or fit fail this call alone, before a byte is written —
// not the socket every other caller shares.
func (c *Client) send(id uint64, method string, params any, ch chan callResult) error {
	buf := frames.Get().(*[]byte)
	defer putFrame(buf)
	var err error
	if *buf, err = appendFrame(*buf, kindRequest, id, params, method); err != nil {
		return fmt.Errorf("%w: %w", errEncode, err)
	}

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	conn := c.conn
	gen := c.gen
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	_, err = conn.Write(*buf)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// A failed write means the connection is dead for everyone, not just
		// this call: mark the client broken immediately (scoped to this
		// connection's generation) so the caller's next exchange redials
		// instead of writing into the same dead socket.
		err = fmt.Errorf("%w: %v", ErrBroken, err)
		c.fail(gen, err)
	}
	return err
}

// Call invokes method with params and decodes the result into result (which
// may be nil to discard it). It blocks until the response arrives, the
// connection fails, or the client's CallTimeout (if configured) elapses.
func (c *Client) Call(method string, params any, result any) error {
	return c.CallDeadline(method, params, result, c.opts.CallTimeout)
}

// CallDeadline is Call with an explicit per-call deadline. timeout <= 0
// means no deadline. On timeout the call returns an error wrapping
// ErrTimeout; the connection stays open and a late response is discarded.
func (c *Client) CallDeadline(method string, params any, result any, timeout time.Duration) error {
	id := c.nextID.Add(1)
	ch := results.Get().(chan callResult)
	if err := c.send(id, method, params, ch); err != nil {
		return err
	}

	var res callResult
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case res = <-ch:
		case <-timer.C:
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			// The response may have been delivered between the timer firing
			// and the delete; prefer it if so.
			select {
			case res = <-ch:
			default:
				return fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
			}
		}
	} else {
		res = <-ch
	}
	// Whoever sends on a pending channel removes it from pending first, so it
	// is sent on once: having received, nobody else holds ch. (A call that
	// gave up above may still be answered; its channel is not reused.)
	results.Put(ch)

	if res.err != nil {
		return res.err
	}
	defer putFrame(res.frame)
	if len(res.msg) > 0 {
		return &ServerError{Msg: string(res.msg), Code: string(res.code)}
	}
	if result == nil {
		return nil
	}
	return res.result.Decode(result)
}

// Close tears the connection down, failing pending calls. The client cannot
// be redialed afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	gen := c.gen
	conn := c.conn
	c.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	c.fail(gen, ErrClosed)
	return err
}
