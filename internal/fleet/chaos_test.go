// The chaos e2e the whole PR exists for: three real mapd replicas behind
// the router, closed-loop client traffic, and a seeded fault plan that
// kills one replica mid-run. The fleet must absorb the kill — zero
// client-visible unretried failures, nothing served by the victim once it
// is down, and every shot issued after its ejection answered in full by a
// survivor — and with every replica killed the router must still answer,
// flagged degraded. The invariants count shots; none compares wall-clock
// throughput, so the test holds on a loaded 1–2 core box.

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mapd"
	"repro/internal/obs"
)

// chaosReplica is an mrserved stand-in that can be killed and restarted
// on the same address mid-test.
type chaosReplica struct {
	name string
	addr string
	mu   sync.Mutex
	srv  *http.Server
}

func (r *chaosReplica) start(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		t.Fatalf("replica %s: listen %s: %v", r.name, r.addr, err)
	}
	r.addr = ln.Addr().String()
	ms := mapd.New(mapd.Config{Name: r.name, Registry: obs.NewRegistry()})
	srv := &http.Server{Handler: ms.Handler()}
	r.mu.Lock()
	r.srv = srv
	r.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

func (r *chaosReplica) kill() {
	r.mu.Lock()
	srv := r.srv
	r.srv = nil
	r.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// shotRecord is one client-observed request outcome.
type shotRecord struct {
	issued   time.Duration // since run start, before the request was sent
	code     int
	degraded bool
	replica  string // x-mr-replica: who served it
}

func TestChaosKillGoodputRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e runs ~1.2s of wall-clock traffic")
	}

	// The seeded kill plan: one replica, chosen and timed by the plan's
	// RNG, dies somewhere in [350ms, 450ms]. Same seed, same schedule —
	// a failing run reproduces exactly.
	plan, err := fault.Parse("seed=42;replica-chaos:kills=1,by=450ms@t=350ms")
	if err != nil {
		t.Fatal(err)
	}
	events := plan.FleetEvents(3)
	if len(events) != 1 || events[0].Kind != fault.KindReplicaKill {
		t.Fatalf("plan materialized %v, want exactly one kill", events)
	}
	kill := events[0]
	killAt := time.Duration(kill.At * float64(time.Second))

	replicas := make([]*chaosReplica, 3)
	var urls, names []string
	for i := range replicas {
		replicas[i] = &chaosReplica{name: fmt.Sprintf("r%d", i), addr: "127.0.0.1:0"}
		replicas[i].start(t)
		t.Cleanup(replicas[i].kill)
		urls = append(urls, "http://"+replicas[i].addr)
		names = append(names, replicas[i].name)
	}

	g, err := New(Config{
		Replicas:   urls,
		Names:      names,
		Backoff:    500 * time.Microsecond,
		MaxBackoff: 5 * time.Millisecond,
		Health:     HealthConfig{Interval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(context.Background())
	t.Cleanup(g.Stop)
	gateLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := &http.Server{Handler: g.Handler()}
	go func() { _ = gateSrv.Serve(gateLn) }()
	t.Cleanup(func() { _ = gateSrv.Close() })
	gateURL := "http://" + gateLn.Addr().String()

	// Closed-loop traffic: a small query mix so several distinct keys put
	// every replica in play.
	bodies := []string{
		`{"hierarchy":"2,2,4","order":"2-1-0","rank":5}`,
		`{"hierarchy":"2,4,2,8","order":"2-1-0-3","n":8}`,
		`{"hierarchy":"16,2,2,8","order":"3-2-1-0","comm_size":16}`,
		`{"hierarchy":"2,2,2","order":"0-1-2","table":true}`,
	}
	paths := []string{"/v1/map", "/v1/select", "/v1/metrics/order", "/v1/map"}

	const (
		duration = 1200 * time.Millisecond
		workers  = 4
	)
	var mu sync.Mutex
	var shots []shotRecord
	start := time.Now()
	client := &http.Client{}
	shoot := func(q int) {
		rec := shotRecord{issued: time.Since(start)}
		resp, err := client.Post(gateURL+paths[q], "application/json", strings.NewReader(bodies[q]))
		if err != nil {
			rec.code = -1
		} else {
			b, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			rec.code = resp.StatusCode
			rec.degraded = strings.Contains(string(b), `"degraded":true`)
			rec.replica = resp.Header.Get("x-mr-replica")
		}
		mu.Lock()
		shots = append(shots, rec)
		mu.Unlock()
	}

	// The executioner: fire the plan's kill at its scheduled time, then
	// note when the router ejected the victim (two failed probes or
	// in-band reports). Zero means not yet.
	var killedAt, ejectedAt atomic.Int64
	executed := make(chan struct{})
	go func() {
		defer close(executed)
		time.Sleep(killAt - time.Since(start))
		replicas[kill.Target].kill()
		killedAt.Store(int64(time.Since(start)))
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if g.States()[kill.Target] == StateDead {
				ejectedAt.Store(int64(time.Since(start)))
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Since(start) < duration; i++ {
				shoot((w + i) % len(bodies))
			}
		}(w)
	}
	wg.Wait()
	<-executed
	killed, ejected := time.Duration(killedAt.Load()), time.Duration(ejectedAt.Load())
	if ejected == 0 {
		t.Fatalf("router never ejected the killed replica %s", names[kill.Target])
	}
	// One more pass over the whole mix, certainly after the ejection.
	for q := range bodies {
		shoot(q)
	}

	// Invariant 1: the kill was client-invisible. Every shot either
	// succeeded or was retried into success — zero unretried failures.
	failures := 0
	for _, s := range shots {
		if s.code != http.StatusOK {
			failures++
		}
	}
	if failures != 0 {
		t.Errorf("%d of %d shots failed client-visibly; failover must absorb the kill", failures, len(shots))
	}

	// Invariant 2: a dead replica serves nothing. No shot issued after the
	// kill returned carries the victim's name.
	// Invariant 3: once the victim is ejected the survivors carry the load
	// — every shot issued from then on is a real answer from one of them,
	// not the local degraded fallback.
	victim := names[kill.Target]
	var pre, post, byVictim, notSurvivor int
	for _, s := range shots {
		switch {
		case s.issued < killed:
			pre++
		case s.replica == victim:
			byVictim++
		case s.issued >= ejected:
			post++
			if s.degraded || s.replica == "" {
				notSurvivor++
			}
		}
	}
	if byVictim != 0 {
		t.Errorf("%d shots issued after the kill at %v were served by the victim %s", byVictim, killed, victim)
	}
	if notSurvivor != 0 {
		t.Errorf("%d of %d shots issued after the ejection at %v were not a survivor's full answer", notSurvivor, post, ejected)
	}
	t.Logf("goodput: %.0f req/s before the kill of %s at %v, %.0f req/s after its ejection at %v (%d shots)",
		float64(pre)/killed.Seconds(), victim, killed, float64(post)/(duration-ejected).Seconds(), ejected, len(shots))

	// Phase 2: kill the whole fleet. The router must keep answering,
	// flagged degraded, and say "degraded" on its own /healthz. Stop the
	// background sweeps first: a probe that connected just before the
	// kill could otherwise land its success between the explicit sweeps
	// below and reset a failure streak.
	g.Stop()
	for _, r := range replicas {
		r.kill()
	}
	g.CheckNow(context.Background())
	g.CheckNow(context.Background()) // second sweep crosses the ejection threshold
	for i, s := range g.States() {
		if s != StateDead {
			t.Fatalf("replica %d state %v after fleet-wide kill, want dead", i, s)
		}
	}
	resp, err := client.Post(gateURL+"/v1/advise", "application/json",
		strings.NewReader(`{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise with dead fleet: status %d, want degraded 200", resp.StatusCode)
	}
	var advise mapd.AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&advise); err != nil {
		t.Fatal(err)
	}
	if !advise.Degraded {
		t.Error("fleet-wide outage answer not marked degraded:true")
	}
	hz, err := client.Get(gateURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	b, _ := io.ReadAll(hz.Body)
	if hz.StatusCode != http.StatusOK || !strings.Contains(string(b), "degraded") {
		t.Errorf("/healthz after fleet-wide kill: status %d body %s, want degraded 200", hz.StatusCode, b)
	}
}
