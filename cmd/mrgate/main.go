// Command mrgate fronts a fleet of mrserved replicas with the
// internal/fleet consistent-hash router: every canonical request key is
// pinned to a home replica (keeping each replica's cache warm for its
// slice of the key space), replica health is tracked actively and
// passively, failures fail over along the hash ring under a global retry
// budget with Retry-After-aware backoff, and when every replica is down
// the gate answers from the local σ-order fallback with degraded:true
// instead of going dark.
//
// Usage:
//
//	mrgate -addr 127.0.0.1:8070 \
//	       -replicas http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//	mrgate -replicas ... -backoff 2ms -max-backoff 250ms -check-interval 1s
//	mrgate -replicas ... -trace gate-trace.json -sample 1
//
// The ring's 128 virtual nodes per replica, three failover retries, the
// retry budget (0.1 token per request, 64 at most), the 1 MiB body cap,
// the 500 ms health-probe timeout and the two failures that eject a
// replica are constants of internal/fleet, not flags.
//
// Endpoints: POST /v1/map, /v1/advise, /v1/select, /v1/metrics/order,
// /v1/map/matrix (proxied); GET /metrics (fleet_* Prometheus metrics),
// /v1/fleet (replica states + retry budget), /healthz (healthy |
// degraded | draining).
//
// With -trace the gate joins the tracing plane: every routed request
// commits a gate-side span tree (route root, per-attempt proxy spans,
// backoff and fallback children) under the same trace id it forwards
// to the replicas, written as Perfetto JSON on shutdown. Stitch the
// gate export with the replicas' via mrtrace -stitch.
//
// A second mode prints a fault plan's replica-kill schedule and exits —
// the smoke harness uses it to pick its victim deterministically:
//
//	mrgate -print-plan -plan "seed=42;replica-chaos:kills=1,by=3s" -fleet-size 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

type options struct {
	addr       string
	replicas   string
	names      string
	backoff    time.Duration
	maxBackoff time.Duration
	interval   time.Duration
	announce   time.Duration
	drain      time.Duration

	traceFile string
	sample    float64

	planText  string
	fleetSize int
	printPlan bool
}

var logger = rt.NewTextLogger(os.Stderr, slog.LevelInfo)

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func buildRouter(o options, tracer *rt.Tracer) (*fleet.Router, error) {
	var names []string
	if o.names != "" {
		names = splitList(o.names)
	}
	return fleet.New(fleet.Config{
		Tracer:     tracer,
		Replicas:   splitList(o.replicas),
		Names:      names,
		Backoff:    o.backoff,
		MaxBackoff: o.maxBackoff,
		Health:     fleet.HealthConfig{Interval: o.interval},
		Logger:     logger,
	})
}

// printPlan renders a fault plan's replica schedule, one event per line
// ("kill 1 @1.25s" / "restart 1 @3.25s"), so shell harnesses can follow
// the same deterministic schedule the seed produced.
func printPlan(w *os.File, planText string, fleetSize int) error {
	plan, err := fault.Parse(planText)
	if err != nil {
		return err
	}
	for _, ev := range plan.FleetEvents(fleetSize) {
		verb := "kill"
		if ev.Kind == fault.KindReplicaRestart {
			verb = "restart"
		}
		fmt.Fprintf(w, "%s %d @%gs\n", verb, ev.Target, ev.At)
	}
	return nil
}

// serve listens on o.addr and blocks until ctx is cancelled or the
// listener fails. ready (when non-nil) receives the bound address.
func serve(ctx context.Context, g *fleet.Router, o options, ready chan<- string) error {
	logger.Info("binding", "addr", o.addr)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("bind %s: %w", o.addr, err)
	}
	logger.Info("listening", "url", "http://"+ln.Addr().String(), "replicas", o.replicas)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	g.Start(ctx)
	defer g.Stop()
	httpSrv := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		logger.Info("draining", "announce", o.announce, "budget", o.drain)
		g.StartDraining()
		time.Sleep(o.announce)
		sctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			logger.Warn("forced shutdown", "error", err)
			return httpSrv.Close()
		}
		logger.Info("bye")
		return nil
	}
}

func main() {
	o := options{}
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8070", "listen address")
	flag.StringVar(&o.replicas, "replicas", "", "comma-separated mrserved base URLs (required)")
	flag.StringVar(&o.names, "names", "", "comma-separated replica names (default r0..rN)")
	flag.DurationVar(&o.backoff, "backoff", 2*time.Millisecond, "base retry backoff (doubled per attempt, full jitter)")
	flag.DurationVar(&o.maxBackoff, "max-backoff", 250*time.Millisecond, "retry backoff cap")
	flag.DurationVar(&o.interval, "check-interval", time.Second, "active health-check interval")
	flag.DurationVar(&o.announce, "announce", 500*time.Millisecond, "drain announcement window before the listener closes")
	flag.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown drain budget")
	flag.StringVar(&o.traceFile, "trace", "", "write the gate-side request-trace Perfetto JSON here on shutdown")
	flag.Float64Var(&o.sample, "sample", 1, "trace head-sampling ratio (1 = all; negative = errors only)")
	flag.StringVar(&o.planText, "plan", "", "fault plan (internal/fault DSL) for -print-plan")
	flag.IntVar(&o.fleetSize, "fleet-size", 3, "replica count for -print-plan")
	flag.BoolVar(&o.printPlan, "print-plan", false, "print the plan's replica kill/restart schedule and exit")
	flag.Parse()

	if o.printPlan {
		if err := printPlan(os.Stdout, o.planText, o.fleetSize); err != nil {
			fmt.Fprintln(os.Stderr, "mrgate:", err)
			os.Exit(1)
		}
		return
	}

	tracer := rt.NewTracer(rt.Options{Service: "mrgate", SampleRatio: o.sample})
	g, err := buildRouter(o, tracer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrgate:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, g, o, nil); err != nil {
		fmt.Fprintln(os.Stderr, "mrgate:", err)
		os.Exit(1)
	}
	if o.traceFile != "" {
		if terr := obs.WriteTraceFile(o.traceFile, tracer.Scope()); terr != nil {
			logger.Error("writing trace", "path", o.traceFile, "error", terr)
			os.Exit(1)
		}
		logger.Info("wrote trace", "path", o.traceFile)
	}
}
