package rpc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

type addArgs struct {
	A, B int
}

func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	HandleFunc(s, "add", func(a addArgs) (int, error) { return a.A + a.B, nil })
	HandleFunc(s, "fail", func(struct{}) (int, error) { return 0, errors.New("boom") })
	HandleFunc(s, "echo", func(v string) (string, error) { return v, nil })
	HandleFunc(s, "slow", func(d int) (int, error) {
		time.Sleep(time.Duration(d) * time.Millisecond)
		return d, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sum int
	if err := c.Call("add", addArgs{A: 2, B: 3}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Errorf("sum = %d", sum)
	}
}

func TestCallError(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out int
	err = c.Call("fail", struct{}{}, &out)
	if err == nil || err.Error() != "boom" {
		t.Errorf("err = %v, want boom", err)
	}
	// The connection survives a handler error.
	if err := c.Call("add", addArgs{A: 1, B: 1}, &out); err != nil || out != 2 {
		t.Errorf("follow-up call = %d, %v", out, err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("nope", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
}

func TestBadParams(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out int
	err = c.Call("add", "not-a-struct", &out)
	if err == nil || !strings.Contains(err.Error(), "bad params") {
		t.Errorf("err = %v", err)
	}
}

func TestNilParamsAndResult(t *testing.T) {
	s := NewServer()
	called := false
	HandleFunc(s, "ping", func(struct{}) (any, error) {
		called = true
		return nil, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("handler not invoked")
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int
			if err := c.Call("add", addArgs{A: i, B: i}, &sum); err != nil {
				errs <- err
				return
			}
			if sum != 2*i {
				errs <- fmt.Errorf("call %d: sum=%d", i, sum)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPipeliningNotHeadOfLineBlocked(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var wg sync.WaitGroup
	fastDone := make(chan time.Duration, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var out int
		_ = c.Call("slow", 300, &out)
	}()
	time.Sleep(20 * time.Millisecond) // slow call is in flight
	go func() {
		defer wg.Done()
		var out string
		if err := c.Call("echo", "hi", &out); err == nil {
			fastDone <- time.Since(start)
		}
	}()
	wg.Wait()
	select {
	case d := <-fastDone:
		if d > 250*time.Millisecond {
			t.Errorf("fast call took %v behind a 300ms call: head-of-line blocking", d)
		}
	default:
		t.Fatal("fast call failed")
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := newTestServer(t)
	for i := 0; i < 5; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		if err := c.Call("echo", fmt.Sprintf("c%d", i), &out); err != nil || out != fmt.Sprintf("c%d", i) {
			t.Errorf("client %d: %q %v", i, out, err)
		}
		c.Close()
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	s, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		var out int
		done <- c.Call("slow", 300, &out)
	}()
	time.Sleep(50 * time.Millisecond)
	go s.Close() // returns once the slow handler has
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded after server close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after server close")
	}
}

// TestServerCloseWaitsForHandlers: Close returns only after every in-flight
// handler has, and leaves no goroutine of the server's behind.
func TestServerCloseWaitsForHandlers(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewServer()
	entered, release := make(chan struct{}), make(chan struct{})
	HandleFunc(s, "block", func(struct{}) (struct{}, error) {
		close(entered)
		<-release
		return struct{}{}, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	called := make(chan struct{})
	go func() {
		_ = c.Call("block", struct{}{}, nil)
		close(called)
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a handler in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return once the handler did")
	}
	<-called
	c.Close()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines after Close, %d before the server started", n, base)
	}
}

func TestClientCloseFailsCalls(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call("add", addArgs{1, 2}, nil); err == nil {
		t.Error("call on closed client succeeded")
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	s := NewServer()
	s.Handle("x", func(Body) (any, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler did not panic")
		}
	}()
	s.Handle("x", func(Body) (any, error) { return nil, nil })
}

func TestDialFailure(t *testing.T) {
	if _, err := DialTimeout("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("dial to a closed port succeeded")
	}
}
