package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler serves the observability endpoints:
//
//	/metrics          Prometheus text exposition of the registry
//	/metrics.json     the same registry as a JSON array
//	/debug/trace      sampled query traces (JSON), ?limit=N for the newest N
//	/debug/decisions  the decision audit log (JSON), ?since=SEQ for a cursor
//	/debug/pprof/     Go runtime profiles (CPU, heap, goroutine, ...)
//
// A limit or since that does not parse is answered 400, not ignored.
//
// The pprof endpoints are registered on this private mux (not the global
// http.DefaultServeMux), so profiling the command center or a stage service
// in place needs no extra wiring:
//
//	go tool pprof http://ADDR/debug/pprof/profile?seconds=10
//	go tool pprof http://ADDR/debug/pprof/heap
//
// Any of reg, audit, tracer may be nil; the matching endpoint then serves
// its empty form rather than 404, so dashboards can probe uniformly.
func Handler(reg *Registry, audit *AuditLog, tracer *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			_ = reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		snap := []MetricValue{}
		if reg != nil {
			snap = reg.Snapshot()
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		traces := tracer.Traces()
		if traces == nil {
			traces = []QueryTrace{}
		}
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "limit: want a non-negative integer", http.StatusBadRequest)
				return
			}
			traces = traces[len(traces)-min(n, len(traces)):]
		}
		seen, kept, dropped := tracer.Stats()
		writeJSON(w, struct {
			Seen    uint64       `json:"seen"`
			Kept    uint64       `json:"kept"`
			Dropped uint64       `json:"dropped"`
			Traces  []QueryTrace `json:"traces"`
		}{seen, kept, dropped, traces})
	})
	mux.HandleFunc("/debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			var err error
			if since, err = strconv.ParseUint(s, 10, 64); err != nil {
				http.Error(w, "since: want an event seq", http.StatusBadRequest)
				return
			}
		}
		events := audit.Since(since)
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, struct {
			LastSeq uint64  `json:"last_seq"`
			Dropped uint64  `json:"dropped"`
			Events  []Event `json:"events"`
		}{audit.LastSeq(), audit.Dropped(), events})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running observability HTTP server.
type Server struct {
	Addr string // bound address, usable after Serve returns
	ln   net.Listener
	srv  *http.Server
}

// Serve binds addr (":0" picks a free port) and serves the handler in a
// background goroutine. The caller owns Close.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
