package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a subcommand's stdout, read by the test while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// running is a subcommand started in the background by start.
type running struct {
	out    *syncBuffer
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

// start runs dispatch(args) in the background; the test's cleanup stops it.
func start(t *testing.T, args ...string) *running {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{out: &syncBuffer{}, cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- dispatch(ctx, args, r.out) }()
	t.Cleanup(func() { r.stop() })
	return r
}

// wait returns the subcommand's error once it has returned by itself.
func (r *running) wait() error {
	r.once.Do(func() {
		select {
		case r.err = <-r.done:
		case <-time.After(60 * time.Second):
			r.err = errors.New("the subcommand did not return")
		}
	})
	return r.err
}

// stop cancels the subcommand's context and waits for it to return.
func (r *running) stop() error {
	r.cancel()
	return r.wait()
}

// await polls the subcommand's output until re matches and returns the
// first submatch.
func (r *running) await(t *testing.T, re string) string {
	t.Helper()
	pattern := regexp.MustCompile(re)
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := pattern.FindStringSubmatch(r.out.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("no %q in the output:\n%s", re, r.out.String())
	return ""
}

var noKeepAlive = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

// get fetches path from a running daemon's telemetry endpoint.
func get(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := noKeepAlive.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return body
}

// awaitDecisions polls a running daemon's /debug/decisions until it holds
// an event.
func awaitDecisions(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		var body struct{ Events []json.RawMessage }
		if err := json.Unmarshal(get(t, addr, "/debug/decisions"), &body); err != nil {
			t.Fatalf("decoding /debug/decisions: %v", err)
		}
		if len(body.Events) > 0 {
			return
		}
	}
	t.Fatalf("/debug/decisions at %s stayed empty", addr)
}

// requireMetrics checks a running daemon's /metrics exports each name.
func requireMetrics(t *testing.T, addr string, names ...string) {
	t.Helper()
	body := string(get(t, addr, "/metrics"))
	for _, name := range names {
		if !strings.Contains(body, "\n"+name) {
			t.Errorf("/metrics at %s lacks %s:\n%s", addr, name, body)
		}
	}
}

// startStages starts the three Sirius stage services on loopback, 100×
// compressed, and returns their addresses in pipeline order and the last
// one, which gets the extra flags.
func startStages(t *testing.T, extra ...string) (addrs []string, last *running) {
	t.Helper()
	for i, st := range []struct{ name, memBound string }{{"ASR", "0.15"}, {"IMM", "0.35"}, {"QA", "0.25"}} {
		args := []string{"stage", "-name", st.name, "-membound", st.memBound, "-addr", "127.0.0.1:0", "-timescale", "0.01"}
		if i == 2 {
			args = append(args, extra...)
		}
		last = start(t, args...)
		addrs = append(addrs, last.await(t, `stage `+st.name+` serving on (\S+)`))
	}
	return addrs, last
}

// TestStageCenterSmoke is the distributed prototype in one process: three
// stage services and a Command Center, both 100× compressed, for about two
// wall seconds of Poisson load. The loop's 25 s virtual interval ticks only
// because -timescale compresses the center's clock too, and the latencies it
// reports are virtual: well above the few milliseconds a Sirius query takes
// in wall time at this scale.
func TestStageCenterSmoke(t *testing.T) {
	addrs, qa := startStages(t, "-chaos", "pass", "-metrics.addr", "127.0.0.1:0")
	center := start(t, "center", "-stages", strings.Join(addrs, ","), "-timescale", "0.01",
		"-rate", "2", "-duration", "200s", "-interval", "25s", "-metrics.addr", "127.0.0.1:0")
	telemetryAddr := center.await(t, `telemetry on http://(\S+)/metrics`)
	awaitDecisions(t, telemetryAddr)
	requireMetrics(t, telemetryAddr, "powerchief_power_draw_watts", "powerchief_queries_completed_total",
		"powerchief_stage_health_QA", "powerchief_ingest_deltas_total", "powerchief_window_latency_seconds")
	requireMetrics(t, qa.await(t, `stage QA telemetry on http://(\S+)/metrics`),
		"powerchief_stage_power_draw_watts", "powerchief_stage_queries_completed_total", "powerchief_stage_ingest_flushes_total")
	if err := center.wait(); err != nil {
		t.Fatalf("center: %v\n%s", err, center.out.String())
	}
	m := regexp.MustCompile(`completed (\d+)/(\d+) queries: avg=(\S+)`).FindStringSubmatch(center.out.String())
	if m == nil {
		t.Fatalf("no completion summary:\n%s", center.out.String())
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Errorf("no query completed:\n%s", center.out.String())
	}
	if avg, err := time.ParseDuration(m[3]); err != nil || avg < 200*time.Millisecond {
		t.Errorf("avg latency %s is not in virtual time (%v)", m[3], err)
	}
}

// gauge reads one unlabelled metric from a running daemon's /metrics.
func gauge(t *testing.T, addr, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(string(get(t, addr, "/metrics")))
	if m == nil {
		t.Fatalf("/metrics at %s lacks %s", addr, name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// TestCenterWindowIsVirtual: under -timescale the center's statistics
// window and end-to-end latencies run on the control loop's compressed
// clock, so the window latency the saver compares against -qos is virtual
// — a Sirius query takes a second or more of virtual time, a hundredth of
// that in wall time at this scale.
func TestCenterWindowIsVirtual(t *testing.T) {
	addrs, _ := startStages(t)
	center := start(t, "center", "-stages", strings.Join(addrs, ","), "-timescale", "0.01",
		"-policy", "saver", "-qos", "2s", "-rate", "2", "-duration", "300s", "-interval", "25s",
		"-metrics.addr", "127.0.0.1:0")
	addr := center.await(t, `telemetry on http://(\S+)/metrics`)
	var lat float64
	for deadline := time.Now().Add(20 * time.Second); lat == 0 && time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		lat = gauge(t, addr, "powerchief_window_latency_seconds")
	}
	if lat < 0.2 {
		t.Errorf("window latency %.4fs is not in virtual time", lat)
	}
	if err := center.stop(); err != nil {
		t.Fatalf("center: %v\n%s", err, center.out.String())
	}
}

// TestNodeFleetSmoke is the fleet in one process: three node services and a
// coordinator over them for -duration. Every grant is audited, and the
// final Σ granted stays within the cluster budget.
func TestNodeFleetSmoke(t *testing.T) {
	var addrs, nodeTelemetry []string
	for i, load := range []string{"1", "1.5", "2"} {
		name := fmt.Sprintf("node-%d", i)
		node := start(t, "node", "-name", name, "-load", load, "-addr", "127.0.0.1:0", "-chaos", "pass",
			"-ingest.batch", "16", "-metrics.addr", "127.0.0.1:0")
		addrs = append(addrs, node.await(t, `node `+name+` serving on (\S+)`))
		nodeTelemetry = append(nodeTelemetry, node.await(t, `node `+name+` telemetry on http://(\S+)/metrics`))
	}
	fleet := start(t, "fleet", "-nodes", strings.Join(addrs, ","), "-budget", "100", "-floor", "10",
		"-interval", "100ms", "-duration", "1500ms", "-metrics.addr", "127.0.0.1:0")
	telemetryAddr := fleet.await(t, `telemetry on http://(\S+)/metrics`)
	awaitDecisions(t, telemetryAddr)
	requireMetrics(t, telemetryAddr, "powerchief_fleet_granted_watts")
	requireMetrics(t, nodeTelemetry[0], "powerchief_node_budget_watts", "powerchief_node_grants_total", "powerchief_node_ingest_pending_queries")
	if err := fleet.wait(); err != nil {
		t.Fatalf("fleet: %v\n%s", err, fleet.out.String())
	}
	m := regexp.MustCompile(`Σ granted (\S+)W of (\S+)W`).FindStringSubmatch(fleet.out.String())
	if m == nil {
		t.Fatalf("no Σ granted line:\n%s", fleet.out.String())
	}
	granted, _ := strconv.ParseFloat(m[1], 64)
	budget, _ := strconv.ParseFloat(m[2], 64)
	if granted <= 0 || granted > budget {
		t.Errorf("Σ granted %.2fW, want within (0, %.2fW]", granted, budget)
	}
}

// TestCancelLeavesNoGoroutines cancels a node feeding delta ingest and a
// center with queries in flight, and requires each to return with every
// goroutine it started gone: the count comes back to its base once the
// connections it closed are torn down on the far side.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	settle := func(t *testing.T, base int) {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		if n > base {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines after cancel, %d before start:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	}
	t.Run("node", func(t *testing.T) {
		base := runtime.NumGoroutine()
		node := start(t, "node", "-name", "n", "-addr", "127.0.0.1:0", "-ingest.batch", "8", "-ingest.rate", "1000")
		node.await(t, `(node n delta ingest enabled)`)
		node.await(t, `node n serving on (\S+)`)
		time.Sleep(50 * time.Millisecond)
		if err := node.stop(); err != nil {
			t.Fatal(err)
		}
		settle(t, base)
	})
	t.Run("center", func(t *testing.T) {
		addrs, _ := startStages(t)
		base := runtime.NumGoroutine()
		// freq-boost actuates over RPC without cloning instances, so the
		// stage services end with the goroutines they started with.
		center := start(t, "center", "-stages", strings.Join(addrs, ","), "-timescale", "0.01",
			"-policy", "freq-boost", "-rate", "20", "-duration", "10000s", "-interval", "25s")
		center.await(t, `(command center connected)`)
		time.Sleep(300 * time.Millisecond)
		if err := center.stop(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(center.out.String(), "queries: avg=") {
			t.Errorf("no completion summary after the interrupt:\n%s", center.out.String())
		}
		settle(t, base)
	})
}

// TestRun runs a short scenario and checks it prints the metrics block and
// the decision timeline.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := dispatch(context.Background(), []string{"run", "-duration", "60s", "-decisions", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sirius-powerchief-medium [powerchief]: completed ", "latency avg=", "avg power="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunConfigRoundTrip saves the experiment the flags imply and runs it
// back from the file: the result is the flags' own.
func TestRunConfigRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	args := []string{"run", "-app", "nlp", "-load", "high", "-duration", "120s", "-seed", "3"}
	run := func(extra ...string) string {
		var out bytes.Buffer
		if err := dispatch(context.Background(), append(args, extra...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	direct := run()
	if saved := run("-save-config", path); !strings.Contains(saved, "experiment written to "+path) {
		t.Fatalf("-save-config printed %q", saved)
	}
	if fromFile := run("-config", path); fromFile != direct {
		t.Errorf("-config run:\n%s\nflags run:\n%s", fromFile, direct)
	}
}

// TestRejectedInput feeds every subcommand input it must refuse: each
// returns an error, and none panics or exits.
func TestRejectedInput(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"run", "-nosuchflag"},
		{"run", "-level", "bogus"},
		{"run", "-instances", "2,x"},
		{"run", "-instances", "0"},
		{"run", "-app", "bogus"},
		{"center"},
		{"center", "-stages", "127.0.0.1:1,127.0.0.1:2"},
		{"center", "-stages", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", "-timescale", "0"},
		{"stage"},
		{"stage", "-name", "A", "-kind", "bogus"},
		{"stage", "-name", "A", "-level", "bogus"},
		{"stage", "-name", "A", "-chaos", "bogus"},
		{"fleet"},
		{"node"},
		{"node", "-name", "n", "-chaos", "bogus"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			if err := dispatch(context.Background(), args, io.Discard); err == nil {
				t.Error("accepted")
			}
		})
	}
}
