// The routing tier itself: parse the request far enough to recover the
// canonical key, walk the consistent-hash ring in health-aware preference
// order, and proxy. Failures fail over along the ring under a global
// retry budget with capped jittered backoff honoring Retry-After; and
// when every replica is gone the router answers from the local σ-order
// fallback instead of going dark.

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// Config tunes a Router. The zero value is not servable: at least one
// replica URL is required.
type Config struct {
	// Replicas are the mrserved base URLs (e.g. http://127.0.0.1:8081).
	Replicas []string
	// Names label the replicas in metrics and /v1/fleet (default r0..rN).
	Names []string
	// Backoff is the base retry delay, doubled per attempt with full
	// jitter (default 2ms); MaxBackoff caps it (default 250ms). A replica
	// Retry-After hint raises the delay when larger.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Health tunes the active checker.
	Health HealthConfig
	// Tracer records gate-side spans — the route root, one proxy span per
	// failover attempt, backoff waits, health probes, and the local
	// fallback — on the same trace id the gate forwards to the replica
	// (nil disables tracing; every instrumentation point is nil-safe).
	Tracer *rt.Tracer
	// Logger receives failover/fallback diagnostics (default: discard).
	Logger *slog.Logger
}

const (
	// maxRetries bounds failover attempts after the first try.
	maxRetries = 3
	// retryBudgetRatio is the retry-budget deposit per incoming request
	// (sustained retry amplification is capped at 10%); retryBudgetBurst
	// caps the bucket.
	retryBudgetRatio = 0.1
	retryBudgetBurst = 64
	// maxRespBody caps a proxied response.
	maxRespBody = 64 << 20
)

func (c Config) withDefaults() Config {
	if c.Names == nil {
		for i := range c.Replicas {
			c.Names = append(c.Names, "r"+strconv.Itoa(i))
		}
	}
	if c.Backoff <= 0 {
		c.Backoff = 2 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Router is the consistent-hash fleet router.
type Router struct {
	cfg     Config
	ring    *Ring
	checker *Checker
	budget  *Budget
	client  *http.Client  // proxies; pooled per replica
	reg     *obs.Registry // receives the fleet_* metrics
	logger  *slog.Logger

	draining atomic.Bool

	retries      *obs.Counter
	failovers    *obs.Counter
	budgetDenied *obs.Counter

	// sleep is the retry backoff sleeper; tests replace it.
	sleep func(time.Duration)
}

// New builds a Router. It does not start the health checker; call Start.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: no replicas configured")
	}
	cfg = cfg.withDefaults()
	if len(cfg.Names) != len(cfg.Replicas) {
		return nil, fmt.Errorf("fleet: %d names for %d replicas", len(cfg.Names), len(cfg.Replicas))
	}
	for i, u := range cfg.Replicas {
		cfg.Replicas[i] = strings.TrimSuffix(u, "/")
	}
	reg := obs.NewRegistry()
	g := &Router{
		cfg:    cfg,
		ring:   NewRing(len(cfg.Replicas), DefaultVNodes),
		budget: NewBudget(retryBudgetRatio, retryBudgetBurst),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
		}},
		reg:          reg,
		logger:       cfg.Logger,
		retries:      reg.Counter("fleet_retries_total"),
		failovers:    reg.Counter("fleet_failovers_total"),
		budgetDenied: reg.Counter("fleet_retry_budget_exhausted_total"),
		sleep:        time.Sleep,
	}
	for name, help := range map[string]string{
		"fleet_requests_total":               "Proxied requests, by replica and HTTP status code (code=error: transport failure).",
		"fleet_request_seconds":              "End-to-end routed request latency, by endpoint.",
		"fleet_retries_total":                "Failover retry attempts issued by the router.",
		"fleet_failovers_total":              "Requests served by a replica other than the key's home replica.",
		"fleet_retry_budget_exhausted_total": "Retries denied because the global retry budget was empty.",
		"fleet_fallback_total":               "Answers served by the router's local degraded fallback, by endpoint.",
	} {
		reg.SetHelp(name, help)
	}
	g.checker = NewChecker(cfg.Replicas, cfg.Names, cfg.Health)
	g.checker.tracer = cfg.Tracer
	g.checker.onState = func(i int, s ReplicaState) {
		g.logger.Info("replica state", "replica", cfg.Names[i], "url", cfg.Replicas[i], "state", s.String())
	}
	return g, nil
}

// Start settles initial health states synchronously, then begins periodic
// sweeps. Stop ends them.
func (g *Router) Start(ctx context.Context) {
	g.checker.CheckNow(ctx)
	g.checker.Start()
}

// Stop halts the health checker.
func (g *Router) Stop() { g.checker.Stop() }

// CheckNow runs one synchronous health sweep (exposed for tests and the
// perf harness).
func (g *Router) CheckNow(ctx context.Context) { g.checker.CheckNow(ctx) }

// States snapshots every replica's routing state.
func (g *Router) States() []ReplicaState { return g.checker.States() }

// StartDraining flips the router into the draining state: /healthz turns
// 503 and new requests are refused while in-flight proxies finish.
func (g *Router) StartDraining() { g.draining.Store(true) }

// Registry returns the router's metric registry.
func (g *Router) Registry() *obs.Registry { return g.reg }

// Handler returns the router's HTTP handler: every query endpoint of
// mapd's table proxied by canonical key, plus the router's own /healthz,
// /metrics, and /v1/fleet.
func (g *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range mapd.Endpoints() {
		latency := g.reg.Histogram("fleet_request_seconds", obs.WallBuckets(), obs.L("endpoint", ep.Name))
		mux.HandleFunc(ep.Path, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			g.route(w, r, ep)
			latency.Observe(time.Since(start).Seconds())
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status, code := g.health()
		w.Header().Set("Content-Type", "application/json")
		if code != http.StatusOK {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(code)
		}
		_, _ = w.Write([]byte(`{"status":"` + status + `"}` + "\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WritePrometheus(w, g.reg)
	})
	mux.HandleFunc("/v1/fleet", mapd.GetJSON(func() any { return g.status() }))
	return mux
}

// health resolves the router's own tri-state /healthz: draining beats
// degraded (whole fleet dead but the local fallback still answers) beats
// healthy.
func (g *Router) health() (string, int) {
	switch {
	case g.draining.Load():
		return "draining", http.StatusServiceUnavailable
	case g.aliveReplicas() == 0:
		return "degraded", http.StatusOK
	default:
		return "healthy", http.StatusOK
	}
}

func (g *Router) aliveReplicas() int {
	n := 0
	for _, s := range g.checker.States() {
		if s != StateDead {
			n++
		}
	}
	return n
}

// fleetStatus is the GET /v1/fleet answer. Fallback is always true: the
// router answers locally whenever the fleet cannot.
type fleetStatus struct {
	Replicas          []replicaStatus `json:"replicas"`
	RetryBudgetTokens float64         `json:"retry_budget_tokens"`
	Fallback          bool            `json:"fallback"`
}

type replicaStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
}

func (g *Router) status() fleetStatus {
	st := fleetStatus{
		RetryBudgetTokens: g.budget.Tokens(),
		Fallback:          true,
	}
	for i, u := range g.cfg.Replicas {
		st.Replicas = append(st.Replicas, replicaStatus{
			Name:  g.cfg.Names[i],
			URL:   u,
			State: g.checker.State(i).String(),
		})
	}
	return st
}

// candidates orders the key's ring sequence by health class: healthy
// replicas first (in ring order, preserving cache locality), then
// degraded, then draining. Dead replicas are ejected entirely.
func (g *Router) candidates(seq []int) []int {
	var classes [3][]int
	for _, i := range seq {
		switch g.checker.State(i) {
		case StateHealthy:
			classes[0] = append(classes[0], i)
		case StateDegraded:
			classes[1] = append(classes[1], i)
		case StateDraining:
			classes[2] = append(classes[2], i)
		}
	}
	out := classes[0]
	out = append(out, classes[1]...)
	return append(out, classes[2]...)
}

// upstream is one proxied attempt's outcome.
type upstream struct {
	idx        int
	status     int
	header     http.Header
	body       []byte
	err        error
	retryAfter time.Duration
}

// retryable reports whether the attempt may be retried on another
// replica: transport failures and 5xx answers are; everything else is the
// authoritative answer.
func (u upstream) retryable() bool { return u.err != nil || u.status >= 500 }

// route is the proxy pipeline for one request. The gate opens the
// request's root span on the same trace id it forwards (continuing an
// incoming traceparent when present), so a stitched export shows the
// gate's routing decisions and the replica's evaluation side by side.
func (g *Router) route(w http.ResponseWriter, r *http.Request, ep mapd.Endpoint) {
	path := ep.Path
	ctx, span := g.cfg.Tracer.StartRequest(r.Context(), "gate "+path, r.Header.Get("traceparent"))
	defer span.End()
	if tp := span.Traceparent(); tp != "" {
		w.Header().Set("traceparent", tp)
	}
	if g.draining.Load() {
		w.Header().Set("Retry-After", "1")
		mapd.WriteError(ctx, w, http.StatusServiceUnavailable, "router is draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, mapd.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			mapd.WriteError(ctx, w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mapd.MaxBody))
		} else {
			mapd.WriteError(ctx, w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return
	}
	// One parse serves both the routing key and the local fallback. The
	// canonical key gives warm-cache locality; a body the parser rejects is
	// still routed (deterministically, by raw bytes) so a replica produces
	// the authoritative error.
	q, perr := ep.Parse(body)
	var key string
	if perr == nil {
		key = q.Key()
	} else {
		key = "raw|" + path + "|" + strconv.FormatUint(hashKey(string(body)), 16)
	}
	seq := g.ring.Sequence(key)
	g.budget.Deposit()

	cands := g.candidates(seq)
	span.SetAttr("candidates", int64(len(cands)))
	var retryAfter time.Duration
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			if !g.budget.Withdraw() {
				g.budgetDenied.Add(1)
				span.Event("retry_budget_exhausted", obs.Arg{Key: "attempt", Val: int64(attempt)})
				break
			}
			g.retries.Add(1)
			span.Event("failover_attempt", obs.Arg{Key: "attempt", Val: int64(attempt)})
			_, bsp := rt.StartSpan(ctx, "gate.backoff")
			bsp.SetAttr("attempt", int64(attempt))
			g.sleep(BackoffDelay(g.cfg.Backoff, g.cfg.MaxBackoff, attempt-1, retryAfter, rand.Int63n))
			bsp.End()
			// Health states may have settled since the failure.
			cands = g.candidates(seq)
		}
		if len(cands) == 0 {
			break
		}
		u := g.send(ctx, cands[attempt%len(cands)], path, body, r.Header)
		if !u.retryable() {
			span.SetAttr("attempts", int64(attempt+1))
			span.SetAttr("failover", obs.Bool(u.idx != seq[0]))
			g.writeUpstream(w, u, seq[0])
			return
		}
		retryAfter = u.retryAfter
	}
	g.serveFallback(ctx, w, ep.Name, q, perr)
}

// send proxies one attempt to replica idx and reads the full response.
// Each attempt is its own child span named after the replica, and the
// outgoing traceparent is that span's — the replica's spans parent under
// this exact attempt, not under the route root.
func (g *Router) send(ctx context.Context, idx int, path string, body []byte, inHdr http.Header) upstream {
	u := upstream{idx: idx}
	sctx, sp := rt.StartSpan(ctx, "proxy "+g.cfg.Names[idx])
	defer sp.End()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, g.cfg.Replicas[idx]+path, bytes.NewReader(body))
	if err != nil {
		u.err = err
		sp.SetError()
		return u
	}
	req.Header.Set("Content-Type", "application/json")
	tp := sp.Traceparent()
	if tp == "" {
		tp = inHdr.Get("traceparent")
	}
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		u.err = err
		sp.SetError()
		// A cancelled context is the client hanging up, not evidence
		// against the replica.
		if ctx.Err() == nil {
			g.checker.ReportFailure(idx)
		}
		g.reg.Counter("fleet_requests_total",
			obs.L("replica", g.cfg.Names[idx]), obs.L("code", "error")).Add(1)
		return u
	}
	u.status = resp.StatusCode
	u.header = resp.Header
	u.body, err = io.ReadAll(io.LimitReader(resp.Body, maxRespBody))
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		u.err = err
		sp.SetError()
		if ctx.Err() == nil {
			g.checker.ReportFailure(idx)
		}
		g.reg.Counter("fleet_requests_total",
			obs.L("replica", g.cfg.Names[idx]), obs.L("code", "error")).Add(1)
		return u
	}
	g.checker.ReportSuccess(idx)
	if d, ok := ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
		u.retryAfter = d
	}
	sp.SetAttr("status", int64(u.status))
	if u.status >= http.StatusInternalServerError {
		sp.SetError()
	}
	g.reg.Counter("fleet_requests_total",
		obs.L("replica", g.cfg.Names[idx]), obs.L("code", strconv.Itoa(u.status))).Add(1)
	return u
}

// writeUpstream relays a replica answer to the client.
func (g *Router) writeUpstream(w http.ResponseWriter, u upstream, home int) {
	if u.idx != home {
		g.failovers.Add(1)
	}
	for _, h := range []string{"Content-Type", "Retry-After", "traceparent", "x-mr-replica"} {
		if v := u.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if w.Header().Get("x-mr-replica") == "" {
		// Unnamed replicas still get attributed by the router.
		w.Header().Set("x-mr-replica", g.cfg.Names[u.idx])
	}
	if u.status != http.StatusOK {
		w.WriteHeader(u.status)
	}
	_, _ = w.Write(u.body)
}
