package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/dist"
	"powerchief/internal/telemetry"
)

// newFlagSet returns a subcommand's flag set: a bad flag is an error the
// subcommand returns, never an exit.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("powerchief "+name, flag.ContinueOnError)
}

// rpcFlags is the fault-tolerance group of the two coordinators. center and
// fleet take different members of it with different defaults; a member
// whose default is zero is left off the subcommand.
type rpcFlags struct {
	callTimeout, dialTimeout, retryBackoff, probe time.Duration
	retries, suspectAfter                         int
}

func (f *rpcFlags) register(fs *flag.FlagSet, def rpcFlags) {
	duration := func(p *time.Duration, name string, value time.Duration, usage string) {
		if value != 0 {
			fs.DurationVar(p, name, value, usage)
		}
	}
	count := func(p *int, name string, value int, usage string) {
		if value != 0 {
			fs.IntVar(p, name, value, usage)
		}
	}
	duration(&f.callTimeout, "calltimeout", def.callTimeout, "deadline for control-plane RPCs (stage stats, DVFS, clone, probes; node reports and grants)")
	duration(&f.dialTimeout, "dialtimeout", def.dialTimeout, "deadline for dialing a node service")
	count(&f.retries, "retries", def.retries, "max retries of idempotent RPCs on transient failures")
	duration(&f.retryBackoff, "retrybackoff", def.retryBackoff, "base backoff between retries (exponential, jittered)")
	duration(&f.probe, "probe", def.probe, "health-probe cadence for suspect/down stages")
	count(&f.suspectAfter, "suspectafter", def.suspectAfter, "consecutive failures before a stage or node is quarantined")
}

// ingestFlags sizes delta-batched statistics ingest. The center sets the
// sizes, a stage clamps what any center asks for, and a node enables its
// own ingest with them; each says which in its usage.
type ingestFlags struct {
	batch    int
	interval time.Duration
}

func (f *ingestFlags) register(fs *flag.FlagSet, batchUsage, intervalUsage string) {
	fs.IntVar(&f.batch, "ingest.batch", 0, batchUsage)
	fs.DurationVar(&f.interval, "ingest.interval", 0, intervalUsage)
}

// telemetryFlags serves the observability endpoints; traced subcommands
// also sample completed queries into span trees.
type telemetryFlags struct {
	addr          string
	sample, depth int
}

func (f *telemetryFlags) register(fs *flag.FlagSet, traced bool) {
	fs.StringVar(&f.addr, "metrics.addr", "", "serve /metrics, /debug/trace and /debug/decisions on this address (empty disables)")
	if traced {
		fs.IntVar(&f.sample, "trace.sample", 0, "keep every Nth completed query trace (0 disables tracing)")
		fs.IntVar(&f.depth, "trace.depth", 0, "max per-query records materialized into spans (0 = default)")
	}
}

// tracer returns the tracer -trace.sample asks for, or nil when there is
// none or no endpoint to read it from.
func (f *telemetryFlags) tracer() *telemetry.Tracer {
	if f.sample <= 0 || f.addr == "" {
		return nil
	}
	return telemetry.NewTracer(telemetry.TracerOptions{Sample: f.sample, Depth: f.depth})
}

// serve starts the endpoints on -metrics.addr, if set, over a registry the
// register functions fill; the returned server's Close is nil-safe.
func (f *telemetryFlags) serve(w io.Writer, who string, audit *telemetry.AuditLog, tracer *telemetry.Tracer, register ...func(*telemetry.Registry)) (*telemetry.Server, error) {
	if f.addr == "" {
		return nil, nil
	}
	reg := telemetry.NewRegistry()
	for _, r := range register {
		r(reg)
	}
	srv, err := telemetry.Serve(f.addr, telemetry.Handler(reg, audit, tracer))
	if err == nil {
		fmt.Fprintf(w, "%stelemetry on http://%s/metrics\n", who, srv.Addr)
	}
	return srv, err
}

// serviceFlags is the group the stage and node services share: the listen
// address, the fault-injection proxy (an operator can make a live service
// hang, slow its replies or refuse connections) and telemetry.
type serviceFlags struct {
	addr       string
	chaos      *dist.ChaosMode // nil: no proxy
	chaosDelay time.Duration
	tel        telemetryFlags
}

func (f *serviceFlags) register(fs *flag.FlagSet, traced bool) {
	fs.StringVar(&f.addr, "addr", ":0", "listen address")
	fs.Func("chaos", "serve through the fault-injection proxy: pass, hang, slow or deny", func(s string) error {
		for _, m := range []dist.ChaosMode{dist.ChaosPass, dist.ChaosHang, dist.ChaosSlow, dist.ChaosDeny} {
			if m.String() == s {
				f.chaos = &m
				return nil
			}
		}
		return fmt.Errorf("unknown -chaos mode %q", s)
	})
	fs.DurationVar(&f.chaosDelay, "chaosdelay", 100*time.Millisecond, "per-reply delay in -chaos slow mode")
	f.tel.register(fs, traced)
}

// serve advertises svc and its telemetry until ctx is done. Under -chaos the
// service listens privately and the advertised address is the proxy in
// front of it.
func (f *serviceFlags) serve(ctx context.Context, w io.Writer, who, detail string, svc interface{ Listen(string) (string, error) }, tracer *telemetry.Tracer, register func(*telemetry.Registry)) error {
	if f.chaos != nil {
		backend, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		proxy := dist.NewChaosProxy(backend)
		defer proxy.Close()
		proxy.SetMode(*f.chaos)
		proxy.SetDelay(f.chaosDelay)
		fmt.Fprintf(w, "%s chaos mode %s (delay %v), backend %s\n", who, *f.chaos, f.chaosDelay, backend)
		svc = proxy
	}
	bound, err := svc.Listen(f.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s serving on %s (%s)\n", who, bound, detail)
	srv, err := f.tel.serve(w, who+" ", nil, tracer, register)
	if err != nil {
		return err
	}
	defer srv.Close()
	<-ctx.Done()
	return nil
}

// parseLevel reads a frequency flag: min, mid, max or a GHz value.
func parseLevel(s string) (cmp.Level, error) {
	if l, ok := map[string]cmp.Level{"min": 0, "mid": cmp.MidLevel, "max": cmp.MaxLevel}[s]; ok {
		return l, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad -level %q (want min, mid, max or GHz)", s)
	}
	return cmp.LevelOf(cmp.GHz(f)), nil
}
