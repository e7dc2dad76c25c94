// The HTTP/JSON service: the query endpoints behind a shared
// cache → singleflight → evaluate pipeline, a Prometheus /metrics
// endpoint, and structured error responses. Every request is bounded — a
// body-size cap before parsing, validation limits in parse.go, and a
// per-evaluation timeout — so the daemon stays predictable under abusive
// or accidental load.
//
// Telemetry wraps the whole pipeline: a middleware extracts/injects W3C
// traceparent headers and opens the request's root span, the cache,
// singleflight, breaker-fallback and evaluation stages annotate child
// spans, one structured log line per request carries the trace id, every
// error body quotes it, and each request outcome feeds the rolling SLO
// burn-rate tracker surfaced on /v1/slo, /metrics, and /healthz.

package mapd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// Config tunes a Server. The zero value picks production defaults.
type Config struct {
	// CacheEntries bounds the result cache (default 4096; negative
	// disables caching).
	CacheEntries int
	// Timeout bounds one evaluation (default 10 s). Evaluations run on a
	// context detached from the client connection so a singleflight result
	// survives its first requester hanging up.
	Timeout time.Duration
	// MaxInflight caps concurrently served requests; excess requests are
	// shed with 503 + Retry-After instead of queueing without bound
	// (default 512; negative disables shedding).
	MaxInflight int
	// Registry receives the service metrics (default: a fresh registry).
	Registry *obs.Registry
	// Tracer records request-scoped spans (nil disables tracing; every
	// instrumentation point is nil-safe).
	Tracer *rt.Tracer
	// Logger receives one structured line per request plus error-path
	// diagnostics, trace-correlated when Tracer is set (default: discard).
	Logger *slog.Logger
	// SLO tracks rolling burn rates per endpoint (default: a tracker on
	// the wall clock). Fast-burning SLOs degrade /healthz.
	SLO *rt.SLOTracker
	// Name identifies this replica in a fleet: when set, every response
	// carries it in the x-mr-replica header so routers and load generators
	// can attribute latency to the replica that actually served.
	Name string
}

const (
	// MaxBody caps a request body in bytes, here and at the routing tier.
	MaxBody = 1 << 20
	// cacheShards is the shard count of the result cache.
	cacheShards = 16
	// breakerThreshold is how many consecutive evaluation failures open
	// the advisor circuit breaker; breakerCooldown is how long it stays
	// open before letting a probe evaluation through.
	breakerThreshold = 5
	breakerCooldown  = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 512
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SLO == nil {
		c.SLO = rt.NewSLOTracker(rt.SLOOptions{})
	}
	return c
}

// Server is the mapping-advisory service.
type Server struct {
	cfg     Config
	cache   *Cache
	flight  flightGroup
	reg     *obs.Registry
	breaker *breaker
	slo     *rt.SLOTracker
	logger  *slog.Logger
	stats   *workloadStats

	inflightN atomic.Int64 // shedding decision
	draining  atomic.Bool

	inflight        *obs.Gauge
	shared          *obs.Counter
	evals           *obs.Counter
	shed            *obs.Counter
	fallbacks       *obs.Counter
	matrixFallbacks *obs.Counter

	// AdviseHook, when non-nil, runs inside each advise evaluation before
	// the order search starts. Tests use it as a synchronization point and
	// as a fault injector for the circuit breaker.
	AdviseHook func()
	// MatrixHook is AdviseHook's matrix-map counterpart; it runs inside the
	// evaluation, already under the Timeout deadline.
	MatrixHook func()
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:             cfg,
		cache:           NewCache(cfg.CacheEntries, cacheShards),
		reg:             cfg.Registry,
		slo:             cfg.SLO,
		logger:          cfg.Logger,
		stats:           newWorkloadStats(DefaultStatsClasses),
		breaker:         newBreaker(breakerThreshold, breakerCooldown, nil),
		inflight:        cfg.Registry.Gauge("mapd_inflight_requests"),
		shared:          cfg.Registry.Counter("mapd_singleflight_shared_total"),
		evals:           cfg.Registry.Counter("mapd_advise_evals_total"),
		shed:            cfg.Registry.Counter("mapd_shed_total"),
		fallbacks:       cfg.Registry.Counter("mapd_advise_fallback_total"),
		matrixFallbacks: cfg.Registry.Counter("mapd_matrix_fallback_total"),
	}
	for name, help := range map[string]string{
		"mapd_requests_total":            "Requests served, by endpoint and HTTP status code.",
		"mapd_request_seconds":           "End-to-end request latency, by endpoint.",
		"mapd_cache_hits_total":          "Result-cache hits, by endpoint.",
		"mapd_cache_misses_total":        "Result-cache misses, by endpoint.",
		"mapd_inflight_requests":         "Requests currently being served.",
		"mapd_singleflight_shared_total": "Evaluations shared between concurrent identical requests.",
		"mapd_advise_evals_total":        "Full advisor order-search evaluations started.",
		"mapd_shed_total":                "Requests shed by the in-flight cap.",
		"mapd_advise_fallback_total":     "Answers served by the breaker-open fallback, any guarded endpoint.",
		"mapd_matrix_fallback_total":     "Matrix-map answers degraded to the σ-order baseline (breaker open).",
		"mapd_breaker_state":             "Advisor circuit breaker state (0 closed, 1 open, 2 half-open).",
		"advisor_search_seconds":         "Order-search latency, by search mode (exact/pruned/bnb/beam/matrix/fallback).",
		"procmap_map_seconds":            "Matrix-aware placement latency (σ baseline + greedy + refinement).",
		"advisor_class_hits_total":       "Orders served from an equivalence-class representative, by search mode.",
		"advisor_class_misses_total":     "Order evaluations actually performed, by search mode.",
	} {
		cfg.Registry.SetHelp(name, help)
	}
	s.flight.onShared = func() { s.shared.Add(1) }
	state := cfg.Registry.Gauge("mapd_breaker_state")
	state.Set(float64(breakerClosed))
	s.breaker.onState = func(st breakerState) { state.Set(float64(st)) }
	return s
}

// StartDraining moves the server into the draining state: /healthz reports
// draining with 503 so load balancers stop routing here, and new API
// requests are refused while in-flight ones complete.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Registry returns the server's metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the service's HTTP handler: the query endpoints of the
// table in endpoint.go, each served with POST, plus
//
//	GET  /metrics   Prometheus exposition of the registry
//	GET  /v1/stats  cardinality-bounded workload analytics
//	GET  /v1/slo    rolling SLO burn rates per endpoint
//	GET  /healthz   liveness probe
//
// The returned handler is wrapped in the telemetry middleware: W3C
// traceparent extraction/injection, per-request structured logging, and
// SLO recording.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, e := range endpoints {
		mux.HandleFunc(e.Path, s.serve(e))
	}
	mux.HandleFunc("/v1/stats", GetJSON(func() any { return s.stats.report() }))
	mux.HandleFunc("/v1/slo", GetJSON(func() any { return s.slo.Report() }))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(r.Context(), w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		s.slo.Publish(s.reg)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WritePrometheus(w, s.reg)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status, code := s.health()
		w.Header().Set("Content-Type", "application/json")
		if code != http.StatusOK {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(code)
		}
		_, _ = w.Write([]byte(`{"status":"` + status + `"}` + "\n"))
	})
	return s.withTelemetry(mux)
}

// search is the served advise evaluation: the order search with the
// server's metrics, recorded into the breaker.
func (q *parsedAdvise) search(ctx context.Context, s *Server) (any, error) {
	if s.AdviseHook != nil {
		s.AdviseHook()
	}
	s.evals.Add(1)
	resp, err := evalAdvise(ctx, q, advisor.SearchOptions{Registry: s.reg})
	if err == nil {
		s.stats.observeSearch(resp.SearchMode)
	}
	s.recordOutcome(err)
	return resp, err
}

func (q *parsedAdvise) fallback(s *Server, start time.Time) (any, error) {
	resp, err := evalAdviseFallback(q)
	if err != nil {
		return nil, err
	}
	s.recordSearch(advisor.ModeFallback, resp.OrdersEvaluated, time.Since(start))
	return resp, nil
}

// search is the served matrix-map evaluation, recorded into the breaker.
func (q *parsedMatrixMap) search(ctx context.Context, s *Server) (any, error) {
	start := time.Now()
	if s.MatrixHook != nil {
		s.MatrixHook()
	}
	resp, err := evalMatrixMap(ctx, q)
	s.recordOutcome(err)
	if err != nil {
		return nil, err
	}
	s.reg.Histogram("procmap_map_seconds", obs.SearchBuckets()).Observe(time.Since(start).Seconds())
	s.recordSearch(ModeMatrix, resp.OrdersEvaluated, time.Since(start))
	return resp, nil
}

func (q *parsedMatrixMap) fallback(s *Server, start time.Time) (any, error) {
	resp, err := evalMatrixMapFallback(q)
	if err != nil {
		return nil, err
	}
	s.matrixFallbacks.Add(1)
	s.recordSearch(advisor.ModeFallback, resp.OrdersEvaluated, time.Since(start))
	return resp, nil
}

// recordOutcome feeds one search result to the breaker. Client errors say
// nothing about the service's health.
func (s *Server) recordOutcome(err error) {
	s.breaker.Record(err == nil || errors.Is(err, ErrBadRequest))
}

// recordSearch labels one order search the advisor did not run itself — a
// matrix-map placement, or a σ-order fallback of either search endpoint —
// in the advisor_search_* series and the workload analytics, so dashboards
// see the full mode split alongside the advisor's own exact/pruned series.
func (s *Server) recordSearch(mode string, orders int64, elapsed time.Duration) {
	ml := obs.L("mode", mode)
	s.reg.Counter("advisor_class_misses_total", ml).AddInt(orders)
	s.reg.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).Observe(elapsed.Seconds())
	s.stats.observeSearch(mode)
}

// health resolves the tri-state /healthz answer: draining beats degraded
// beats healthy. Degraded (advisor breaker not closed, or an SLO burning
// fast enough to page) still returns 200 — the service answers, just from
// cache or heuristics. The SLO check fires on sustained elevated error or
// latency rates, degrading health before the breaker's consecutive-failure
// counter ever trips.
func (s *Server) health() (string, int) {
	switch {
	case s.draining.Load():
		return "draining", http.StatusServiceUnavailable
	case s.breaker.State() != breakerClosed:
		return "degraded", http.StatusOK
	case s.slo.FastBurning():
		return "degraded", http.StatusOK
	default:
		return "healthy", http.StatusOK
	}
}

// statusWriter captures the response code and size for logging and SLO
// accounting.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// withTelemetry is the outermost middleware: it opens the request's root
// span (continuing an upstream traceparent when present), injects the
// traceparent response header so clients can quote the trace, records the
// outcome into the SLO tracker, and emits one structured log line.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.cfg.Name != "" {
			w.Header().Set("x-mr-replica", s.cfg.Name)
		}
		ctx, span := s.cfg.Tracer.StartRequest(r.Context(), "http "+r.URL.Path, r.Header.Get("traceparent"))
		if tp := span.Traceparent(); tp != "" {
			w.Header().Set("traceparent", tp)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		// Only the query endpoints are tracked, keeping label cardinality
		// bounded.
		if e, ok := lookupEndpoint(r.URL.Path); ok {
			s.slo.Record(e.Name, sw.code, elapsed)
		}
		span.SetAttr("http_status", int64(sw.code))
		if sw.code >= http.StatusInternalServerError {
			span.SetError()
		}
		span.End()
		level := slog.LevelInfo
		switch {
		case sw.code >= http.StatusInternalServerError:
			level = slog.LevelError
		case sw.code >= http.StatusBadRequest:
			level = slog.LevelWarn
		}
		s.logger.LogAttrs(ctx, level, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// serve wraps an endpoint with the shared pipeline: overload shedding,
// method check, body limit, parse, cache lookup, singleflight evaluation,
// metrics.
func (s *Server) serve(e Endpoint) http.HandlerFunc {
	name := e.Name
	hits := s.reg.Counter("mapd_cache_hits_total", obs.L("endpoint", name))
	misses := s.reg.Counter("mapd_cache_misses_total", obs.L("endpoint", name))
	latency := s.reg.Histogram("mapd_request_seconds", obs.WallBuckets(), obs.L("endpoint", name))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		s.inflight.Add(1)
		n := s.inflightN.Add(1)
		code := http.StatusOK
		var (
			q        Query
			cacheHit bool
		)
		defer func() {
			s.inflightN.Add(-1)
			s.inflight.Add(-1)
			latency.Observe(time.Since(start).Seconds())
			s.reg.Counter("mapd_requests_total",
				obs.L("endpoint", name), obs.L("code", strconv.Itoa(code))).Add(1)
			if code == http.StatusOK && q != nil {
				// Only parsed, successfully served requests reach the
				// workload analytics; rejects carry no shape to attribute.
				info := q.stat()
				s.stats.observe(name, &info, cacheHit, time.Since(start))
			}
		}()
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			code = WriteError(ctx, w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		if s.cfg.MaxInflight > 0 && n > int64(s.cfg.MaxInflight) {
			s.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter(n, int64(s.cfg.MaxInflight))))
			code = WriteError(ctx, w, http.StatusServiceUnavailable,
				fmt.Sprintf("over %d requests in flight, try again shortly", s.cfg.MaxInflight))
			return
		}
		if r.Method != http.MethodPost {
			code = WriteError(ctx, w, http.StatusMethodNotAllowed, "use POST with a JSON body")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = WriteError(ctx, w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", MaxBody))
			} else {
				code = WriteError(ctx, w, http.StatusBadRequest, "reading request body: "+err.Error())
			}
			return
		}
		if q, err = e.Parse(body); err != nil {
			code = WriteError(ctx, w, http.StatusBadRequest, err.Error())
			return
		}
		key := q.Key()
		_, lookup := rt.StartSpan(ctx, "cache.lookup")
		cached, ok := s.cache.Get(key)
		lookup.SetAttr("hit", obs.Bool(ok))
		lookup.End()
		if ok {
			cacheHit = true
			hits.Add(1)
			writeJSON(w, cached)
			return
		}
		misses.Add(1)
		sq, guarded := q.(searchQuery)
		if guarded && !s.breaker.Allow() {
			// Breaker open: answer from the cheap heuristic, uncached so a
			// recovered breaker re-evaluates the real search.
			s.fallbacks.Add(1)
			_, fsp := rt.StartSpan(ctx, "advise.fallback")
			resp, ferr := sq.fallback(s, time.Now())
			var b []byte
			if ferr == nil {
				b, ferr = json.Marshal(resp)
			}
			if ferr != nil {
				fsp.SetError()
			}
			fsp.End()
			if ferr != nil {
				code = WriteError(ctx, w, http.StatusInternalServerError, ferr.Error())
				return
			}
			writeJSON(w, append(b, '\n'))
			return
		}
		flightCtx, flightSpan := rt.StartSpan(ctx, "singleflight")
		val, err, shared := s.flight.Do(key, func() ([]byte, error) {
			// Detached from the client connection: a singleflight result is
			// shared, so it must not die with its first requester. The trace
			// context is re-attached explicitly so the evaluation's spans
			// stay children of the (first) requester's trace.
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
			defer cancel()
			ctx, eval := rt.StartSpan(rt.ContextWithSpan(ctx, rt.SpanFromContext(flightCtx)), "evaluate")
			defer eval.End()
			var resp any
			var err error
			if guarded {
				resp, err = sq.search(ctx, s)
			} else {
				resp, err = q.eval(ctx)
			}
			if err != nil {
				eval.SetError()
				return nil, err
			}
			b, err := json.Marshal(resp)
			if err != nil {
				eval.SetError()
				return nil, err
			}
			b = append(b, '\n')
			s.cache.Put(key, b)
			return b, nil
		})
		flightSpan.SetAttr("shared", obs.Bool(shared))
		flightSpan.End()
		if err != nil {
			switch {
			case errors.Is(err, ErrBadRequest):
				code = WriteError(ctx, w, http.StatusBadRequest, err.Error())
			case errors.Is(err, context.DeadlineExceeded):
				code = WriteError(ctx, w, http.StatusGatewayTimeout,
					fmt.Sprintf("evaluation exceeded the %s budget", s.cfg.Timeout))
			default:
				code = WriteError(ctx, w, http.StatusInternalServerError, err.Error())
			}
			s.logger.LogAttrs(ctx, slog.LevelError, "evaluation failed",
				slog.String("endpoint", name), slog.String("error", err.Error()))
			return
		}
		writeJSON(w, val)
	}
}

// maxShedRetryAfter caps the adaptive Retry-After hint: past ~8× the
// in-flight cap the queue-depth signal says "badly overloaded" and longer
// hints only starve well-behaved clients.
const maxShedRetryAfter = 30

// shedRetryAfter scales the shed 503's Retry-After hint with actual queue
// depth instead of a flat 1s: barely over the cap hints 1s, and each
// additional cap's worth of excess in-flight requests adds ~4s, so
// router and client backoff tracks how overloaded the daemon really is.
func shedRetryAfter(inflight, limit int64) int {
	if limit <= 0 || inflight <= limit {
		return 1
	}
	s := 1 + int((inflight-limit)*4/limit)
	if s > maxShedRetryAfter {
		s = maxShedRetryAfter
	}
	return s
}

// GetJSON serves a GET-only JSON report, here and at the routing tier:
// any other method is a 405 envelope.
func GetJSON(report func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(r.Context(), w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		b, err := json.Marshal(report())
		if err != nil {
			WriteError(r.Context(), w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, append(b, '\n'))
	}
}

func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// WriteError emits the structured error envelope every tier answers
// failures with, and returns the code so callers can record it. The
// context's trace id (when tracing is on) is embedded in the body so
// clients can quote it back verbatim; an ErrBadRequest wrapping is
// stripped from msg.
func WriteError(ctx context.Context, w http.ResponseWriter, code int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, _ := json.Marshal(errorBody{Error: errorDetail{
		Code:    code,
		Status:  statusSlug(code),
		Message: strings.TrimPrefix(msg, ErrBadRequest.Error()+": "),
		TraceID: rt.SpanFromContext(ctx).TraceID(),
	}})
	_, _ = w.Write(append(body, '\n'))
	return code
}

func statusSlug(code int) string {
	switch code {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusGatewayTimeout:
		return "timeout"
	case http.StatusServiceUnavailable, http.StatusBadGateway:
		return "unavailable"
	default:
		return "internal"
	}
}
