// Command mrserved runs the mapping-advisory daemon: the internal/mapd
// service behind a plain net/http server with production hygiene —
// request body limits, per-evaluation timeouts, overload shedding, a
// circuit breaker around the advisor search, connection read/write
// deadlines, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	mrserved -addr 127.0.0.1:8077 -cache 4096 -timeout 10s
//	mrserved -debug-addr 127.0.0.1:8078 -trace server-trace.json
//
// The 1 MiB body cap, the cache's 16 shards, the breaker's five-failure
// threshold and 10 s cooldown, and the 32 shape classes of /v1/stats are
// constants of internal/mapd, not flags.
//
// Endpoints: POST /v1/map, /v1/advise, /v1/select, /v1/metrics/order,
// /v1/map/matrix; GET /metrics (Prometheus), /v1/stats (workload
// analytics), /v1/slo (burn rates), /healthz (healthy | degraded |
// draining). With -debug-addr a second listener serves
// net/http/pprof under /debug/pprof/ — separate from the API address so
// profiling is never exposed where the service is.
//
// Request telemetry is always on: the daemon extracts/injects W3C
// traceparent headers, emits one trace-correlated structured log line
// per request, samples runtime metrics (goroutines, heap, GC pauses,
// fds) into /metrics, and tracks rolling SLO burn rates. -sample tunes
// head sampling; -trace writes the committed request spans as Perfetto
// JSON on shutdown (open with mrtrace -open).
//
// On SIGTERM the daemon first flips /healthz to draining (503) and
// refuses new API requests, holds the listener open for the announce
// window so load balancers observe the state change, then closes the
// listener and waits up to the drain budget for in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

type options struct {
	addr        string
	name        string
	debugAddr   string
	traceFile   string
	sample      float64
	cache       int
	timeout     time.Duration
	maxInflight int
	announce    time.Duration
	drain       time.Duration
}

// logger is the process-wide trace-correlated structured logger; main
// replaces the writer-level defaults only via flags, so tests share it.
var logger = rt.NewTextLogger(os.Stderr, slog.LevelInfo)

func buildServers(o options) (*mapd.Server, *http.Server, *rt.Tracer) {
	tracer := rt.NewTracer(rt.Options{Service: "mrserved", SampleRatio: o.sample})
	srv := mapd.New(mapd.Config{
		Name:         o.name,
		CacheEntries: o.cache,
		Timeout:      o.timeout,
		MaxInflight:  o.maxInflight,
		Tracer:       tracer,
		Logger:       logger,
	})
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      o.timeout + 5*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return srv, httpSrv, tracer
}

// serve listens on o.addr and blocks until ctx is cancelled (drain
// gracefully, return nil) or the listener fails. When ready is non-nil it
// receives the bound address once the listener is up.
func serve(ctx context.Context, srv *mapd.Server, httpSrv *http.Server, o options, ready chan<- string) error {
	// Announce the intent before binding: when the bind fails, the log
	// shows which address was attempted even though the error below also
	// names it.
	logger.Info("binding", "addr", o.addr)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("bind %s: %w", o.addr, err)
	}
	logger.Info("listening", "url", "http://"+ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr().String()
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
		return drainAndShutdown(srv, httpSrv, o.announce, o.drain)
	}
}

// serveDebug runs the pprof listener until ctx is cancelled. The handlers
// are mounted on a dedicated mux (not http.DefaultServeMux) so nothing
// else ever leaks onto the debug port.
func serveDebug(ctx context.Context, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	dbg := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		<-ctx.Done()
		_ = dbg.Close()
	}()
	logger.Info("debug listener (pprof)", "addr", addr)
	if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("debug listener failed", "addr", addr, "error", err)
	}
}

// drainAndShutdown performs the graceful exit: announce the draining state
// first, then stop accepting and wait for in-flight work.
func drainAndShutdown(srv *mapd.Server, httpSrv *http.Server, announce, drain time.Duration) error {
	logger.Info("draining", "announce", announce, "budget", drain)
	srv.StartDraining()
	time.Sleep(announce)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("forced shutdown", "error", err)
		return httpSrv.Close()
	}
	logger.Info("bye")
	return nil
}

func main() {
	o := options{}
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8077", "listen address")
	flag.StringVar(&o.name, "name", "", "replica name announced in the x-mr-replica response header (for fleet routing)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:8078)")
	flag.StringVar(&o.traceFile, "trace", "", "write the request-trace Perfetto JSON here on shutdown")
	flag.Float64Var(&o.sample, "sample", 1, "trace head-sampling ratio (1 = all; negative = errors only)")
	flag.IntVar(&o.cache, "cache", 4096, "result-cache capacity in entries (negative disables)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-evaluation budget")
	flag.IntVar(&o.maxInflight, "max-inflight", 512, "in-flight request cap before shedding (negative disables)")
	flag.DurationVar(&o.announce, "announce", 500*time.Millisecond, "drain announcement window before the listener closes")
	flag.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	srv, httpSrv, tracer := buildServers(o)
	sampler := rt.StartSampler(rt.SamplerOptions{Registry: srv.Registry()})
	defer sampler.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if o.debugAddr != "" {
		go serveDebug(ctx, o.debugAddr)
	}
	err := serve(ctx, srv, httpSrv, o, nil)
	if o.traceFile != "" {
		if terr := obs.WriteTraceFile(o.traceFile, tracer.Scope()); terr != nil {
			logger.Error("writing trace", "path", o.traceFile, "error", terr)
			if err == nil {
				err = terr
			}
		} else {
			logger.Info("wrote trace", "path", o.traceFile)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrserved:", err)
		os.Exit(1)
	}
}
