package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// healthStub is a /healthz endpoint whose answer the test can switch.
type healthStub struct {
	mu     sync.Mutex
	status string // JSON status field; "" = connection-level refusal stand-in (500 garbage)
}

func (h *healthStub) set(s string) {
	h.mu.Lock()
	h.status = s
	h.mu.Unlock()
}

func (h *healthStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	s := h.status
	h.mu.Unlock()
	if s == "" {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte("not json"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if s == "draining" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write([]byte(`{"status":"` + s + `"}`))
}

func newHealthFixture(t *testing.T, statuses ...string) (*Checker, []*healthStub) {
	t.Helper()
	var urls, names []string
	var stubs []*healthStub
	for i, s := range statuses {
		stub := &healthStub{status: s}
		ts := httptest.NewServer(stub)
		t.Cleanup(ts.Close)
		stubs = append(stubs, stub)
		urls = append(urls, ts.URL)
		names = append(names, "r"+string(rune('0'+i)))
	}
	return NewChecker(urls, names, HealthConfig{}), stubs
}

func TestCheckerMapsTriStateHealth(t *testing.T) {
	c, _ := newHealthFixture(t, "healthy", "degraded", "draining")
	c.CheckNow(context.Background())
	want := []ReplicaState{StateHealthy, StateDegraded, StateDraining}
	for i, w := range want {
		if got := c.State(i); got != w {
			t.Errorf("replica %d: state %v, want %v", i, got, w)
		}
	}
}

func TestCheckerEjectsAfterThreshold(t *testing.T) {
	c, stubs := newHealthFixture(t, "healthy")
	ctx := context.Background()
	c.CheckNow(ctx)
	stubs[0].set("") // garbage answers now
	c.CheckNow(ctx)
	if got := c.State(0); got == StateDead {
		t.Fatal("one failed probe ejected the replica; threshold is 2")
	}
	c.CheckNow(ctx)
	if got := c.State(0); got != StateDead {
		t.Fatalf("state %v after %d failed probes, want dead", got, 2)
	}
	// Recovery: one good probe revives it.
	stubs[0].set("healthy")
	c.CheckNow(ctx)
	if got := c.State(0); got != StateHealthy {
		t.Fatalf("state %v after recovery probe, want healthy", got)
	}
}

func TestPassiveReportsEjectAndRevive(t *testing.T) {
	c, _ := newHealthFixture(t, "healthy")
	c.ReportFailure(0)
	c.ReportFailure(0)
	if got := c.State(0); got != StateDead {
		t.Fatalf("state %v after passive failures at threshold, want dead", got)
	}
	c.ReportSuccess(0)
	if got := c.State(0); got != StateHealthy {
		t.Fatalf("state %v after passive success, want healthy", got)
	}
}

func TestCheckerStateChangeHook(t *testing.T) {
	c, stubs := newHealthFixture(t, "healthy")
	var mu sync.Mutex
	var seen []ReplicaState
	c.onState = func(i int, s ReplicaState) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
	}
	ctx := context.Background()
	c.CheckNow(ctx) // healthy → healthy: no change, no event
	stubs[0].set("degraded")
	c.CheckNow(ctx)
	stubs[0].set("degraded") // unchanged: no event
	c.CheckNow(ctx)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != StateDegraded {
		t.Errorf("state hook saw %v, want exactly one degraded transition", seen)
	}
}

func TestCheckerUnreachableReplica(t *testing.T) {
	// A URL nobody listens on: probes fail at the transport layer.
	c := NewChecker([]string{"http://127.0.0.1:1"}, []string{"r0"}, HealthConfig{})
	ctx := context.Background()
	c.CheckNow(ctx)
	c.CheckNow(ctx)
	if got := c.State(0); got != StateDead {
		t.Fatalf("state %v for unreachable replica, want dead", got)
	}
}
