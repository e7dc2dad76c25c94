// Tests for the overload-safety layer: queue-depth shedding, the advisor
// circuit breaker with its heuristic fallback, and the draining state.

package mapd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
	close(release)
	wg.Wait()
	if got := reg.FindCounter("mapd_shed_total"); got < 1 {
		t.Errorf("mapd_shed_total = %v, want >= 1", got)
	}
}

func TestBreakerOpensAndServesHeuristicFallback(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Registry:         reg,
		CacheEntries:     -1,
		Timeout:          5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	// Every real evaluation overruns its budget and fails.
	s.AdviseHook = func() { time.Sleep(30 * time.Millisecond) }

	req := `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`
	for i := 0; i < 2; i++ {
		if code, _ := post(t, ts, "/v1/advise", req); code != http.StatusGatewayTimeout {
			t.Fatalf("warm-up request %d: status %d, want 504", i, code)
		}
	}
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
		CacheEntries:     -1,
		Timeout:          5 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
	})
	var fail atomic.Bool
	fail.Store(true)
	s.AdviseHook = func() {
		if fail.Load() {
			time.Sleep(30 * time.Millisecond)
		}
	}
	req := `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`
	if code, _ := post(t, ts, "/v1/advise", req); code != http.StatusGatewayTimeout {
		t.Fatal("warm-up did not time out")
	}
	if s.breaker.State() != breakerOpen {
		t.Fatal("breaker did not open")
	}
	fail.Store(false)
	time.Sleep(5 * time.Millisecond) // past the cooldown: next request probes
	deadline := time.Now().Add(2 * time.Second)
	for s.breaker.State() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed; state %v", s.breaker.State())
		}
		post(t, ts, "/v1/advise", req)
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
