package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapd"
	"repro/internal/obs"
)

// newFleet stands up n real mapd replicas behind a router. Background
// health sweeps are off (interval = 1h); tests drive CheckNow directly so
// state transitions are deterministic.
func newFleet(t *testing.T, n int, cfg Config) (*Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var urls, names []string
	var reps []*httptest.Server
	for i := 0; i < n; i++ {
		name := "r" + strconv.Itoa(i)
		ms := mapd.New(mapd.Config{Name: name, Registry: obs.NewRegistry()})
		ts := httptest.NewServer(ms.Handler())
		t.Cleanup(ts.Close)
		reps = append(reps, ts)
		urls = append(urls, ts.URL)
		names = append(names, name)
	}
	cfg.Replicas = urls
	cfg.Names = names
	if cfg.Backoff == 0 {
		cfg.Backoff = 500 * time.Microsecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 5 * time.Millisecond
	}
	if cfg.Health.Interval == 0 {
		cfg.Health.Interval = time.Hour
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := httptest.NewServer(g.Handler())
	t.Cleanup(gate.Close)
	return g, gate, reps
}

func gateGet(t *testing.T, gate *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(gate.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func gatePost(t *testing.T, gate *httptest.Server, path, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(gate.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSuffix(string(b), "\n"), resp.Header
}

// Syntactic variants of the same query must land on the same replica —
// the canonical routing key, not the raw bytes, decides placement. That
// is what keeps each replica's cache warm for its slice of the key space.
func TestRoutingByCanonicalKey(t *testing.T) {
	_, gate, _ := newFleet(t, 3, Config{})
	variants := []string{
		`{"hierarchy":"2,2,4","order":"2-1-0","rank":5}`,
		`{"hierarchy":"[2, 2, 4]","order":"2,1,0","rank":5}`,
		`{"order":"2-1-0","hierarchy":"2,2,4","rank":5}`,
	}
	var replica string
	for i, body := range variants {
		code, resp, hdr := gatePost(t, gate, "/v1/map", body)
		if code != http.StatusOK {
			t.Fatalf("variant %d: status %d body %s", i, code, resp)
		}
		got := hdr.Get("x-mr-replica")
		if got == "" {
			t.Fatal("response missing x-mr-replica attribution")
		}
		if replica == "" {
			replica = got
		} else if got != replica {
			t.Fatalf("variant %d routed to %s, earlier variants to %s", i, got, replica)
		}
	}
}

// Killing the key's home replica must be invisible to the client: the
// router fails over along the ring and the caller still sees 200.
func TestFailoverOnDeadReplica(t *testing.T) {
	g, gate, reps := newFleet(t, 3, Config{})
	const body = `{"hierarchy":"2,2,4","order":"2-1-0","rank":5}`
	code, resp, hdr := gatePost(t, gate, "/v1/map", body)
	if code != http.StatusOK {
		t.Fatalf("warm-up: status %d body %s", code, resp)
	}
	home := hdr.Get("x-mr-replica")
	for i := range reps {
		if "r"+strconv.Itoa(i) == home {
			reps[i].Close()
		}
	}
	for i := 0; i < 5; i++ {
		code, resp, hdr = gatePost(t, gate, "/v1/map", body)
		if code != http.StatusOK {
			t.Fatalf("request %d after kill: status %d body %s — client saw the failure", i, code, resp)
		}
		if got := hdr.Get("x-mr-replica"); got == home {
			t.Fatalf("request %d served by dead replica %s", i, got)
		}
		if hdr.Get("x-mrgate-fallback") != "" {
			t.Fatalf("request %d hit local fallback; survivors should have absorbed it", i)
		}
	}
	if got := g.Registry().FindCounter("fleet_failovers_total"); got < 1 {
		t.Errorf("fleet_failovers_total = %v, want >= 1", got)
	}
	if dead := 3 - g.aliveReplicas(); dead != 1 {
		t.Errorf("%d replicas marked dead after passive failures, want 1", dead)
	}
}

// With the whole fleet gone, the router answers from the local σ-order
// fallback, flagged degraded — and /healthz says so.
func TestAllDeadServesDegradedFallback(t *testing.T) {
	g, gate, reps := newFleet(t, 3, Config{})
	for _, r := range reps {
		r.Close()
	}
	code, resp, hdr := gatePost(t, gate, "/v1/advise",
		`{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`)
	if code != http.StatusOK {
		t.Fatalf("status %d body %s, want a degraded 200", code, resp)
	}
	if hdr.Get("x-mrgate-fallback") != "local" {
		t.Error("fallback answer not marked x-mrgate-fallback: local")
	}
	var advise mapd.AdviseResponse
	if err := json.Unmarshal([]byte(resp), &advise); err != nil {
		t.Fatal(err)
	}
	if !advise.Degraded {
		t.Error("fallback advise answer not marked degraded:true")
	}
	if len(advise.Best) == 0 {
		t.Error("fallback advise answer carries no ranked orders")
	}

	// Exact endpoints answer exactly, still marked degraded.
	code, resp, _ = gatePost(t, gate, "/v1/map", `{"hierarchy":"2,2,4","order":"2-1-0","rank":5}`)
	if code != http.StatusOK || !strings.Contains(resp, `"degraded":true`) {
		t.Errorf("fallback map: status %d body %s, want degraded 200", code, resp)
	}
	if !strings.Contains(resp, `"new_rank":5`) {
		t.Errorf("fallback map answer wrong: %s", resp)
	}

	resp2, err := http.Get(gate.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	b, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(b), "degraded") {
		t.Errorf("/healthz with dead fleet: status %d body %s, want degraded 200", resp2.StatusCode, b)
	}
	if g.Registry().FindCounter("fleet_fallback_total", obs.L("endpoint", "map")) < 1 {
		t.Error("fleet_fallback_total{endpoint=map} not incremented")
	}
}

// Client errors are authoritative: a 400 from a replica must pass through
// unretried, and a parse-rejected body must still route (deterministically)
// so the replica produces that 400.
func TestBadRequestPassesThroughUnretried(t *testing.T) {
	g, gate, _ := newFleet(t, 3, Config{})
	code, resp, _ := gatePost(t, gate, "/v1/map", `{"hierarchy":"0","rank":1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d body %s, want the replica's 400", code, resp)
	}
	if !strings.Contains(resp, "bad_request") {
		t.Errorf("400 body lacks the mapd envelope: %s", resp)
	}
	if got := g.Registry().FindCounter("fleet_retries_total"); got != 0 {
		t.Errorf("a 400 answer drove %v retries, want 0", got)
	}
}

func TestDrainingRouter(t *testing.T) {
	g, gate, _ := newFleet(t, 1, Config{})
	g.StartDraining()
	code, _, hdr := gatePost(t, gate, "/v1/map", `{"hierarchy":"2,2","order":"0-1","rank":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}
	resp, err := http.Get(gate.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), "draining") {
		t.Errorf("/healthz while draining: status %d body %s", resp.StatusCode, b)
	}
}

// Retry backoff must honor a replica's Retry-After hint: a shedding
// replica asking for 2s must not be hammered again in 2ms.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	var hits sync.Map
	stub := func(i int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n, _ := hits.LoadOrStore(i, new(int))
			*n.(*int)++
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
		})
	}
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(stub(i))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	g, err := New(Config{Replicas: urls, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slept []time.Duration
	g.sleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	gate := httptest.NewServer(g.Handler())
	t.Cleanup(gate.Close)
	code, body, _ := gatePost(t, gate, "/v1/map", `{"hierarchy":"2,2","order":"0-1","rank":1}`)
	if code != http.StatusOK || !strings.Contains(body, `"degraded":true`) {
		t.Fatalf("all-shedding fleet: status %d body %s, want degraded fallback", code, body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) == 0 {
		t.Fatal("no retries slept")
	}
	for i, d := range slept {
		if d < 2*time.Second {
			t.Errorf("retry %d slept %v, want >= the 2s Retry-After hint", i, d)
		}
	}
}

// An exhausted retry budget stops the retry storm: the router degrades to
// the fallback instead of amplifying load onto a failing fleet.
func TestRetryBudgetExhaustionDegrades(t *testing.T) {
	var attempts sync.Map
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := attempts.LoadOrStore("n", new(int64))
		*n.(*int64)++
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(stub.Close)
	g, err := New(Config{
		Replicas: []string{stub.URL},
		Health:   HealthConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.budget = NewBudget(0.001, 2)
	g.sleep = func(time.Duration) {}
	gate := httptest.NewServer(g.Handler())
	t.Cleanup(gate.Close)

	const body = `{"hierarchy":"2,2","order":"0-1","rank":1}`
	for i := 0; i < 10; i++ {
		code, resp, _ := gatePost(t, gate, "/v1/map", body)
		if code != http.StatusOK || !strings.Contains(resp, `"degraded":true`) {
			t.Fatalf("request %d: status %d body %s, want degraded fallback", i, code, resp)
		}
	}
	if g.Registry().FindCounter("fleet_retry_budget_exhausted_total") < 1 {
		t.Error("budget never reported exhaustion")
	}
	n, _ := attempts.LoadOrStore("n", new(int64))
	// 10 requests, 2 burst tokens: at most 10 first attempts + 2 retries
	// (the 0.001 deposits never add up to another token).
	if got := *n.(*int64); got > 12 {
		t.Errorf("failing replica saw %d attempts for 10 requests; budget should cap at 12", got)
	}
}

func TestFleetStatusEndpoint(t *testing.T) {
	g, gate, reps := newFleet(t, 2, Config{})
	reps[1].Close()
	// Two passive failures eject r1.
	g.checker.ReportFailure(1)
	g.checker.ReportFailure(1)
	resp, err := http.Get(gate.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("fleet status lists %d replicas, want 2", len(st.Replicas))
	}
	if st.Replicas[0].State != "healthy" {
		t.Errorf("r0 state %q, want healthy", st.Replicas[0].State)
	}
	if st.Replicas[1].State != "dead" {
		t.Errorf("r1 state %q, want dead after passive failures", st.Replicas[1].State)
	}
	if !st.Fallback {
		t.Error("fallback not reported enabled")
	}
	// A report route: any other method is a 405 envelope, as on a replica.
	if code, body, _ := gatePost(t, gate, "/v1/fleet", `{}`); code != http.StatusMethodNotAllowed ||
		!strings.Contains(body, `"method_not_allowed"`) {
		t.Errorf("POST /v1/fleet: %d %s, want 405 method_not_allowed", code, body)
	}
}

// TestFleetExpositionLint: the gate's /metrics passes the promtool-style
// lint and every fleet_* metric with samples carries a HELP line.
func TestFleetExpositionLint(t *testing.T) {
	_, gate, _ := newFleet(t, 1, Config{})
	if code, _, _ := gatePost(t, gate, "/v1/map", `{"hierarchy":"2,2,4","rank":5}`); code != http.StatusOK {
		t.Fatalf("POST /v1/map: %d", code)
	}
	code, out := gateGet(t, gate, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if _, err := obs.LintPrometheus(out); err != nil {
		t.Fatalf("fleet exposition fails lint: %v", err)
	}
	if missing := obs.MissingHelp(out, "fleet_"); len(missing) != 0 {
		t.Fatalf("fleet_* metrics missing HELP: %v", missing)
	}
}
