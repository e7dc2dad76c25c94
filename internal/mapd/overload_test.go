// Tests for the overload-safety layer: queue-depth shedding, the advisor
// circuit breaker with its heuristic fallback, and the draining state.

package mapd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(3, 10*time.Second, func() time.Time { return clock })

	if !b.Allow() || b.State() != breakerClosed {
		t.Fatal("fresh breaker must be closed")
	}
	b.Record(false)
	b.Record(false)
	if b.State() != breakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.Record(true) // success resets the streak
	b.Record(false)
	b.Record(false)
	b.Record(false)
	if b.State() != breakerOpen {
		t.Fatal("breaker did not open after 3 consecutive failures")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if ra := b.RetryAfter(); ra < 1 || ra > 11 {
		t.Fatalf("RetryAfter = %d", ra)
	}

	clock = clock.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state after probe admission = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.Record(false) // probe fails: reopen
	if b.State() != breakerOpen {
		t.Fatal("failed probe did not reopen")
	}
	clock = clock.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	b.Record(true)
	if b.State() != breakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestOverloadSheds503WithRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Registry: reg, MaxInflight: 2, CacheEntries: -1})
	// Park two advise evaluations so the third request finds the server
	// full.
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	s.AdviseHook = func() {
		started <- struct{}{}
		<-release
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16,"top":%d}`, i+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts, "/v1/advise", body)
		}()
	}
	for i := 0; i < 2; i++ {
		<-started
	}

	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		strings.NewReader(`{"hierarchy":"2,2,4","rank":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Status != "unavailable" {
		t.Errorf("shed envelope: %+v, err %v", eb, err)
	}
	// The shed request left again; the two parked ones are still served.
	if got := reg.FindGauge("mapd_inflight_requests"); got != 2 {
		t.Errorf("mapd_inflight_requests = %v while two requests are parked, want 2", got)
	}
	close(release)
	wg.Wait()
	if got := reg.FindCounter("mapd_shed_total"); got < 1 {
		t.Errorf("mapd_shed_total = %v, want >= 1", got)
	}
}

// breakerClock is a settable clock for a server's breaker, so a test
// decides when the cooldown has elapsed instead of sleeping past it.
type breakerClock struct {
	mu sync.Mutex
	t  time.Time
}

// stopBreakerClock swaps s's breaker onto a clock that moves only when
// advanced. Call it before the first request.
func stopBreakerClock(s *Server) *breakerClock {
	c := &breakerClock{t: time.Unix(0, 0)}
	s.breaker.now = c.now
	return c
}

func (c *breakerClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *breakerClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// tripBreaker sends breakerThreshold requests whose evaluations all fail
// with 504, which opens s's breaker.
func tripBreaker(t *testing.T, s *Server, ts *httptest.Server, path, body string) {
	t.Helper()
	for i := 0; i < breakerThreshold; i++ {
		if code, b := post(t, ts, path, body); code != http.StatusGatewayTimeout {
			t.Fatalf("tripping request %d: status %d, want 504 (body %s)", i, code, b)
		}
	}
	if st := s.breaker.State(); st != breakerOpen {
		t.Fatalf("breaker state = %v after %d consecutive timeouts", st, breakerThreshold)
	}
}

func TestBreakerOpensAndServesHeuristicFallback(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Registry:     reg,
		CacheEntries: -1,
		Timeout:      5 * time.Millisecond,
	})
	stopBreakerClock(s)
	// Every real evaluation overruns its budget and fails.
	s.AdviseHook = func() { time.Sleep(30 * time.Millisecond) }

	req := `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`
	tripBreaker(t, s, ts, "/v1/advise", req)
	if s.breaker.State() != breakerOpen {
		t.Fatalf("breaker state = %v after consecutive timeouts", s.breaker.State())
	}

	// With the breaker open the endpoint answers instantly and degraded.
	code, body := post(t, ts, "/v1/advise", req)
	if code != http.StatusOK {
		t.Fatalf("fallback status %d, body %s", code, body)
	}
	var ar AdviseResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Degraded {
		t.Fatalf("fallback response not marked degraded: %s", body)
	}
	if ar.Evaluated != 24 { // hydra is 4 levels deep: 4! ring costs
		t.Errorf("fallback evaluated %d orders", ar.Evaluated)
	}
	if len(ar.Best) == 0 || len(ar.Best[0].Order) == 0 {
		t.Errorf("fallback carries no ranking: %s", body)
	}
	if got := reg.FindCounter("mapd_advise_fallback_total"); got < 1 {
		t.Errorf("mapd_advise_fallback_total = %v", got)
	}
	if got := reg.FindGauge("mapd_breaker_state"); got != float64(breakerOpen) {
		t.Errorf("mapd_breaker_state = %v, want %v", got, float64(breakerOpen))
	}

	// Degraded (but not draining) still answers 200 on /healthz.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h struct{ Status string }
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK || h.Status != "degraded" {
		t.Errorf("healthz = %d %q, want 200 degraded", hr.StatusCode, h.Status)
	}
}

func TestBreakerRecoversThroughProbe(t *testing.T) {
	s, ts := newTestServer(t, Config{
		CacheEntries: -1,
		Timeout:      5 * time.Millisecond,
	})
	clock := stopBreakerClock(s)
	var fail atomic.Bool
	fail.Store(true)
	s.AdviseHook = func() {
		if fail.Load() {
			time.Sleep(30 * time.Millisecond)
		}
	}
	req := `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`
	tripBreaker(t, s, ts, "/v1/advise", req)
	fail.Store(false)
	// Inside the cooldown the breaker stays open and answers degraded.
	clock.advance(breakerCooldown - time.Nanosecond)
	if code, body := post(t, ts, "/v1/advise", req); code != http.StatusOK || !strings.Contains(body, `"degraded":true`) {
		t.Fatalf("inside the cooldown: %d %s, want a degraded answer", code, body)
	}
	// Past it, the next request is the half-open probe; its success closes
	// the breaker.
	clock.advance(time.Nanosecond)
	if code, body := post(t, ts, "/v1/advise", req); code != http.StatusOK || strings.Contains(body, `"degraded":true`) {
		t.Fatalf("probe answered %d %s, want a real search", code, body)
	}
	if st := s.breaker.State(); st != breakerClosed {
		t.Fatalf("breaker state %v after a successful probe, want closed", st)
	}
	code, body := post(t, ts, "/v1/advise", req)
	var ar AdviseResponse
	if code != http.StatusOK || json.Unmarshal([]byte(body), &ar) != nil || ar.Degraded {
		t.Fatalf("recovered endpoint still degraded: %d %s", code, body)
	}
}

func TestDrainingRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if s.Draining() {
		t.Fatal("fresh server draining")
	}
	if code, _ := post(t, ts, "/v1/map", `{"hierarchy":"2,2,4","rank":5}`); code != http.StatusOK {
		t.Fatal("healthy server refused work")
	}
	s.StartDraining()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDraining")
	}
	code, body := post(t, ts, "/v1/map", `{"hierarchy":"2,2,4","rank":5}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining server served new work: %d %s", code, body)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h struct{ Status string }
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz = %d %q, want 503 draining", hr.StatusCode, h.Status)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Error("draining healthz missing Retry-After")
	}
}

func TestFallbackRankingIsDeterministic(t *testing.T) {
	req := AdviseRequest{Machine: "hydra", Nodes: 4, Collective: "alltoall", CommSize: 16, Top: 3}
	q, err := req.parse()
	if err != nil {
		t.Fatal(err)
	}
	a, err := evalAdviseFallback(q.(*parsedAdvise))
	if err != nil {
		t.Fatal(err)
	}
	b, err := evalAdviseFallback(q.(*parsedAdvise))
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("fallback ranking not deterministic")
	}
	if !a.Degraded || len(a.Best) != 3 {
		t.Fatalf("fallback shape wrong: %s", ja)
	}
	if errors.Is(err, ErrBadRequest) {
		t.Fatal("unexpected client error")
	}
}

// RetryAfter returns the seconds a client should wait before retrying,
// derived from the remaining cooldown (at least 1).
func (b *breaker) RetryAfter() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return 1
	}
	left := b.cooldown - b.now().Sub(b.openedAt)
	if left <= 0 {
		return 1
	}
	return int(left/time.Second) + 1
}

// Draining reports whether StartDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }
