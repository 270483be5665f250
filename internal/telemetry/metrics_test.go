package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"powerchief/internal/query"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total", "completed queries")
	g := r.Gauge("power_watts", "current draw")
	r.GaugeFunc("headroom_watts", "free budget", func() float64 { return 12.5 })
	c.Add(3)
	c.Inc()
	g.Set(80.5)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	// Sorted by name: headroom_watts, power_watts, queries_total.
	if snap[0].Name != "headroom_watts" || snap[0].Value != 12.5 || snap[0].Kind != "gauge" {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "power_watts" || snap[1].Value != 80.5 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
	if snap[2].Name != "queries_total" || snap[2].Value != 4 || snap[2].Kind != "counter" {
		t.Errorf("snap[2] = %+v", snap[2])
	}
}

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pc_queries_total", "completed queries")
	c.Add(42)
	r.GaugeFunc("pc_power_watts", "draw\nwith newline", func() float64 { return 99.25 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pc_power_watts draw\\nwith newline\n",
		"# TYPE pc_power_watts gauge\npc_power_watts 99.25\n",
		"# HELP pc_queries_total completed queries\n",
		"# TYPE pc_queries_total counter\npc_queries_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Gauge block must precede counter block (sorted).
	if strings.Index(out, "pc_power_watts") > strings.Index(out, "pc_queries_total") {
		t.Error("output not sorted by metric name")
	}
}

func TestRegistryRejectsInvalidName(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name not rejected")
		}
	}()
	r.Counter("bad name!", "")
}

func TestRegistryReregisterReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("x", "", func() float64 { return 1 })
	r.GaugeFunc("x", "", func() float64 { return 2 })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 2 {
		t.Fatalf("snapshot = %+v, want single x=2", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Inc()
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 800 {
		t.Fatalf("counter = %d, want 800", c.Value())
	}
}

// get fetches a path from the handler and returns the body.
func get(t *testing.T, h http.Handler, path string) (*http.Response, []byte) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHandlerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pc_up", "").Inc()
	resp, body := get(t, Handler(reg, nil, nil), "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "pc_up 1") {
		t.Errorf("body missing sample:\n%s", body)
	}
}

func TestHandlerMetricsJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("pc_w", "").Set(7)
	_, body := get(t, Handler(reg, nil, nil), "/metrics.json")
	var snap []MetricValue
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(snap) != 1 || snap[0].Name != "pc_w" || snap[0].Value != 7 {
		t.Fatalf("snap = %+v", snap)
	}
}

func TestHandlerDecisionsEndpoint(t *testing.T) {
	audit := NewAuditLog(16)
	audit.Record(Event{Kind: EventStageQuarantine, Stage: "QA", ReclaimedWatts: 30})
	audit.Record(Event{Kind: EventBoostFreq, Instance: "ASR_0", OldLevel: 2, NewLevel: 4})

	_, body := get(t, Handler(nil, audit, nil), "/debug/decisions")
	var got struct {
		LastSeq uint64  `json:"last_seq"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if got.LastSeq != 2 || len(got.Events) != 2 {
		t.Fatalf("last_seq=%d events=%d, want 2/2", got.LastSeq, len(got.Events))
	}
	if got.Events[0].Kind != EventStageQuarantine || got.Events[0].ReclaimedWatts != 30 {
		t.Errorf("event 0 = %+v", got.Events[0])
	}

	// Cursor: since=1 returns only the boost.
	_, body = get(t, Handler(nil, audit, nil), "/debug/decisions?since=1")
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != EventBoostFreq {
		t.Fatalf("since=1 events = %+v", got.Events)
	}

	// A cursor that does not parse is refused, not read as "everything".
	for _, bad := range []string{"abc", "-1", "1.5"} {
		if resp, _ := get(t, Handler(nil, audit, nil), "/debug/decisions?since="+bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("since=%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestHandlerTraceEndpoint(t *testing.T) {
	tr := NewTracer(TracerOptions{Sample: 1, Capacity: 8})
	for i := 1; i <= 3; i++ {
		q := query.New(query.ID(i), time.Duration(i)*time.Second, nil)
		q.Append(query.Record{Stage: "ASR", Instance: "ASR_0",
			QueueEnter: q.Arrival, ServeStart: q.Arrival + 10*time.Millisecond,
			ServeEnd: q.Arrival + 30*time.Millisecond, Level: 1})
		q.Done = q.Arrival + 30*time.Millisecond
		tr.ObserveQuery(q)
	}
	_, body := get(t, Handler(nil, nil, tr), "/debug/trace?limit=2")
	var got struct {
		Seen   uint64       `json:"seen"`
		Kept   uint64       `json:"kept"`
		Traces []QueryTrace `json:"traces"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if got.Seen != 3 || got.Kept != 3 {
		t.Fatalf("seen/kept = %d/%d, want 3/3", got.Seen, got.Kept)
	}
	if len(got.Traces) != 2 || got.Traces[0].ID != 2 || got.Traces[1].ID != 3 {
		t.Fatalf("limit=2 traces = %+v", got.Traces)
	}
	if len(got.Traces[0].Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Traces[0].Spans))
	}

	// A limit that does not parse is refused, not read as "all of them".
	for _, bad := range []string{"abc", "-1", "2x"} {
		if resp, _ := get(t, Handler(nil, nil, tr), "/debug/trace?limit="+bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("limit=%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestHandlerNilComponentsServeEmpty(t *testing.T) {
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/trace", "/debug/decisions"} {
		resp, _ := get(t, Handler(nil, nil, nil), path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pc_live", "").Inc()
	srv, err := Serve("127.0.0.1:0", Handler(reg, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "pc_live 1") {
		t.Fatalf("body = %s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
