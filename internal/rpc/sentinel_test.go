package rpc

import (
	"errors"
	"fmt"
	"testing"

	"powerchief/internal/fault"
)

// startSentinelServer serves one method per registered fault sentinel plus a
// plain-error method, returning the bound address.
func startSentinelServer(t *testing.T) string {
	t.Helper()
	srv := NewServer()
	HandleFunc(srv, "fail.stage", func(struct{}) (struct{}, error) {
		return struct{}{}, fmt.Errorf("submit rejected: %w", fault.ErrStageDown)
	})
	HandleFunc(srv, "fail.node", func(struct{}) (struct{}, error) {
		return struct{}{}, fmt.Errorf("grant rejected: %w", fault.ErrNodeDown)
	})
	HandleFunc(srv, "fail.epoch", func(struct{}) (struct{}, error) {
		return struct{}{}, fmt.Errorf("report fenced: %w", fault.ErrStaleEpoch)
	})
	HandleFunc(srv, "fail.plain", func(struct{}) (struct{}, error) {
		return struct{}{}, errors.New("just an application error")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestSentinelRoundTrip pins the wire contract for fault sentinels: after a
// handler error wrapping a registered sentinel crosses the RPC boundary,
// errors.Is against the same sentinel must still hold on the client side,
// and the error must still classify as an application (non-transient) error.
func TestSentinelRoundTrip(t *testing.T) {
	addr := startSentinelServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()

	cases := []struct {
		method   string
		sentinel error
	}{
		{"fail.stage", fault.ErrStageDown},
		{"fail.node", fault.ErrNodeDown},
		{"fail.epoch", fault.ErrStaleEpoch},
	}
	for _, tc := range cases {
		err := client.Call(tc.method, struct{}{}, nil)
		if err == nil {
			t.Fatalf("%s: expected error", tc.method)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: errors.Is(%v, %v) = false after wire round-trip", tc.method, err, tc.sentinel)
		}
		if IsTransient(err) {
			t.Errorf("%s: sentinel-coded server error misclassified as transient", tc.method)
		}
		if !fault.IsDegraded(err) {
			t.Errorf("%s: decoded error should classify as degraded", tc.method)
		}
		// A sentinel match must not bleed into unrelated sentinels.
		for _, other := range cases {
			if other.sentinel != tc.sentinel && errors.Is(err, other.sentinel) {
				t.Errorf("%s: decoded error also matches unrelated sentinel %v", tc.method, other.sentinel)
			}
		}
	}

	// A plain application error carries no code and matches no sentinel.
	err = client.Call("fail.plain", struct{}{}, nil)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("fail.plain: expected *ServerError, got %v", err)
	}
	if se.Code != "" {
		t.Errorf("fail.plain: unexpected wire code %q", se.Code)
	}
	if fault.IsDegraded(err) {
		t.Errorf("fail.plain: plain error misclassified as degraded")
	}
}

// TestSentinelUnknownCode pins forward compatibility: a code this build does
// not know degrades to a plain application error instead of failing decode.
func TestSentinelUnknownCode(t *testing.T) {
	se := &ServerError{Msg: "future failure", Code: "some-future-code"}
	if got := se.Unwrap(); got != nil {
		t.Fatalf("unknown code unwrapped to %v, want nil", got)
	}
	if fault.IsDegraded(se) {
		t.Fatalf("unknown code misclassified as degraded")
	}
}
