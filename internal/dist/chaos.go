package dist

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ChaosMode selects how a ChaosProxy treats traffic.
type ChaosMode int

const (
	// ChaosPass forwards traffic untouched.
	ChaosPass ChaosMode = iota
	// ChaosDeny refuses new connections and severs existing ones — the
	// observable signature of a killed stage service or a network partition.
	ChaosDeny
	// ChaosHang accepts connections and reads requests but never forwards or
	// answers them — the signature of a hung (accept-but-never-reply)
	// service. Only deadlines get a caller out.
	ChaosHang
	// ChaosSlow forwards traffic but delays every server→client chunk by the
	// configured delay — the signature of an overloaded or GC-thrashing
	// service.
	ChaosSlow
)

// String implements fmt.Stringer.
func (m ChaosMode) String() string {
	switch m {
	case ChaosPass:
		return "pass"
	case ChaosDeny:
		return "deny"
	case ChaosHang:
		return "hang"
	case ChaosSlow:
		return "slow"
	default:
		return "unknown"
	}
}

// ChaosProxy is the fault-injection harness of the distributed prototype: a
// TCP proxy placed between the Command Center and one stage service that can
// kill, hang, or slow the stage mid-run without touching the service
// process. Mode changes apply to new traffic immediately; SeverConns tears
// down established connections to complete a kill or partition.
type ChaosProxy struct {
	mu      sync.Mutex
	backend string
	mode    ChaosMode
	delay   time.Duration
	ln      net.Listener
	// conns maps both ends of every relayed connection to the channel its
	// relay closes once it has exited and untracked them.
	conns  map[net.Conn]chan struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewChaosProxy creates a proxy for the given backend address in ChaosPass
// mode.
func NewChaosProxy(backend string) *ChaosProxy {
	return &ChaosProxy{backend: backend, conns: make(map[net.Conn]chan struct{})}
}

// Listen starts accepting on addr and returns the bound address. Dial the
// returned address instead of the backend.
func (p *ChaosProxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("dist: chaos proxy closed")
	}
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// SetMode switches the fault mode. New connections observe it immediately;
// in-flight traffic observes it per chunk.
func (p *ChaosProxy) SetMode(m ChaosMode) {
	p.mu.Lock()
	p.mode = m
	p.mu.Unlock()
}

// Mode returns the current fault mode.
func (p *ChaosProxy) Mode() ChaosMode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode
}

// SetDelay sets the per-chunk delay applied in ChaosSlow mode.
func (p *ChaosProxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// SetBackend points the proxy at a different backend address — a "restarted"
// service. Existing connections keep their old backend; sever them first to
// force clients onto the new one.
func (p *ChaosProxy) SetBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

// SeverConns closes every established connection through the proxy, leaving
// the listener up, and returns once their relays have exited: nothing a
// caller does next — a probe, a redial — can meet a half-torn-down relay.
// Combined with ChaosDeny this is a kill; alone it forces clients to
// reconnect.
func (p *ChaosProxy) SeverConns() {
	p.mu.Lock()
	relays := make([]chan struct{}, 0, len(p.conns))
	for conn, done := range p.conns {
		conn.Close()
		relays = append(relays, done)
	}
	p.mu.Unlock()
	for _, done := range relays {
		<-done
	}
}

// Kill is the canonical "stage service died" injection: refuse new
// connections and sever established ones.
func (p *ChaosProxy) Kill() {
	p.SetMode(ChaosDeny)
	p.SeverConns()
}

// Partition is the canonical "network partition" injection: the same
// observable signature as Kill (connections refused and severed) but named
// for the case where the backend process keeps running — and keeps its local
// state, including any fencing epoch it last saw. A healed partition
// (Restore) therefore brings back a peer that may report with a stale epoch,
// which is exactly what fencing must reject; a killed-and-restarted backend
// comes back empty instead.
func (p *ChaosProxy) Partition() {
	p.Kill()
}

// Restore returns the proxy to transparent forwarding, optionally pointing
// it at a restarted backend (empty keeps the current one).
func (p *ChaosProxy) Restore(backend string) {
	p.mu.Lock()
	if backend != "" {
		p.backend = backend
	}
	p.mode = ChaosPass
	p.mu.Unlock()
}

// Close shuts the proxy down entirely.
func (p *ChaosProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	if p.ln != nil {
		p.ln.Close()
	}
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *ChaosProxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		mode := p.mode
		backend := p.backend
		if p.closed || mode == ChaosDeny {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		done := make(chan struct{})
		p.conns[conn] = done
		p.mu.Unlock()

		p.wg.Add(1)
		go p.serve(conn, backend, done)
	}
}

// track registers a relay's backend-side connection for severing.
func (p *ChaosProxy) track(conn net.Conn, done chan struct{}) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[conn] = done
	return true
}

func (p *ChaosProxy) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

// serve relays one client connection; done is closed last, after both ends
// are closed and untracked.
func (p *ChaosProxy) serve(client net.Conn, backend string, done chan struct{}) {
	defer p.wg.Done()
	defer close(done)
	defer func() {
		client.Close()
		p.untrack(client)
	}()
	server, err := net.DialTimeout("tcp", backend, 2*time.Second)
	if err != nil {
		// Backend unreachable: in Hang mode swallow the client silently;
		// otherwise drop it so the failure is visible.
		if p.Mode() == ChaosHang {
			io.Copy(io.Discard, client)
		}
		return
	}
	defer server.Close()
	if !p.track(server, done) {
		return
	}
	defer p.untrack(server)

	var wg sync.WaitGroup
	wg.Add(2)
	// client → server: requests. A hung service still reads requests, so in
	// Hang mode bytes are consumed but never forwarded.
	go func() {
		defer wg.Done()
		defer server.Close()
		p.copyChunks(server, client, false)
	}()
	// server → client: responses. Hang drops them; Slow delays them.
	go func() {
		defer wg.Done()
		defer client.Close()
		p.copyChunks(client, server, true)
	}()
	wg.Wait()
}

// copyChunks forwards src to dst one read at a time, consulting the fault
// mode per chunk. Response-direction chunks (isResponse) are dropped in Hang
// mode and delayed in Slow mode.
func (p *ChaosProxy) copyChunks(dst, src net.Conn, isResponse bool) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			mode := p.mode
			delay := p.delay
			p.mu.Unlock()
			forward := true
			if mode == ChaosHang {
				forward = false // swallow: the peer never hears back
			} else if mode == ChaosSlow && isResponse && delay > 0 {
				time.Sleep(delay)
			}
			if forward {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}
