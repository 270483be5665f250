package fleet

import (
	"errors"
	"fmt"

	"powerchief/internal/rpc"
)

// RPCNode is the Transport over internal/rpc: one client connection to a
// NodeService. A broken connection is redialed before the next exchange —
// the probe path by which a quarantined node's recovery is detected — and
// every call runs under the client's CallTimeout so a hung node costs one
// deadline, not a stuck control epoch.
type RPCNode struct {
	name string
	c    *rpc.Client
}

// DialNode connects to a node service and learns its identity. Client
// options should set CallTimeout (and DialTimeout) so node death converts
// into bounded heartbeat failures.
func DialNode(addr string, opts rpc.ClientOptions) (*RPCNode, error) {
	c, err := rpc.DialOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	var info NodeInfo
	if err := c.Call(MethodNodeInfo, nil, &info); err != nil {
		c.Close()
		return nil, fmt.Errorf("fleet: identifying node at %s: %w", addr, err)
	}
	if info.Node == "" {
		c.Close()
		return nil, fmt.Errorf("fleet: node at %s has no name", addr)
	}
	return &RPCNode{name: info.Node, c: c}, nil
}

// Name implements Transport.
func (n *RPCNode) Name() string { return n.name }

// call runs one exchange, redialing a connection known to be broken first —
// the probe path by which a quarantined node's recovery is detected. A
// connection the peer has closed is only known broken once the client's read
// loop has seen the EOF, so a call can still be written into a dead socket;
// both fleet methods are idempotent (a grant is fenced by its epoch), so that
// one outcome — broken under the call, not timed out — is retried once on a
// fresh connection, as an HTTP client retries on a stale keep-alive. A dead
// node fails the redial; a hung one still costs exactly one deadline.
func (n *RPCNode) call(method string, params, result any) error {
	if n.c.Broken() {
		if err := n.c.Redial(); err != nil {
			return err
		}
	}
	err := n.c.Call(method, params, result)
	if errors.Is(err, rpc.ErrBroken) && n.c.Redial() == nil {
		err = n.c.Call(method, params, result)
	}
	return err
}

// Report implements Transport.
func (n *RPCNode) Report() (Report, error) {
	var rep Report
	if err := n.call(MethodNodeReport, nil, &rep); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// Grant implements Transport.
func (n *RPCNode) Grant(g Grant) error { return n.call(MethodNodeGrant, g, nil) }

// Close tears the connection down.
func (n *RPCNode) Close() error { return n.c.Close() }
