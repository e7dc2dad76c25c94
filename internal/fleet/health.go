// Active health checking against the replicas' tri-state /healthz: the
// checker polls every replica, maps the JSON answer onto a replica state,
// and ejects replicas whose probes keep failing. The router additionally
// reports passive outcomes (transport failures and successful proxied
// responses), so a kill is usually detected by the very request that hit
// it rather than the next poll.

package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/rt"
)

// ReplicaState classifies one replica for routing decisions. Ordering
// matters: candidates are tried healthy first, then degraded, then
// draining; dead replicas are not tried at all.
type ReplicaState int32

const (
	// StateHealthy: routable, first choice.
	StateHealthy ReplicaState = iota
	// StateDegraded: answering, but from cache/heuristics (breaker open or
	// SLO burning). Deprioritized, not excluded.
	StateDegraded
	// StateDraining: announced shutdown; routed to only when nothing
	// better is alive.
	StateDraining
	// StateDead: probes failing; ejected until a probe succeeds.
	StateDead
)

func (s ReplicaState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	default:
		return "dead"
	}
}

// HealthConfig tunes the Checker. The zero value picks defaults.
type HealthConfig struct {
	// Interval between active sweeps (default 1s).
	Interval time.Duration
}

const (
	// probeTimeout bounds one /healthz probe.
	probeTimeout = 500 * time.Millisecond
	// failThreshold is how many consecutive probe/transport failures eject
	// a replica.
	failThreshold = 2
)

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	return c
}

// Checker tracks the state of every replica in the fleet.
type Checker struct {
	urls  []string
	names []string
	cfg   HealthConfig

	states []atomic.Int32
	fails  []atomic.Int32

	// onState observes every state change (wired to the router's log);
	// called concurrently.
	onState func(i int, s ReplicaState)
	// tracer records each probe as its own head-sampled root span (nil
	// disables).
	tracer *rt.Tracer

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewChecker builds a checker for the replica base URLs. Replicas start
// healthy so a cold router routes immediately; call CheckNow to settle
// real states before serving.
func NewChecker(urls, names []string, cfg HealthConfig) *Checker {
	c := &Checker{
		urls:   urls,
		names:  names,
		cfg:    cfg.withDefaults(),
		states: make([]atomic.Int32, len(urls)),
		fails:  make([]atomic.Int32, len(urls)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	return c
}

// Start launches the periodic sweep goroutine; Stop ends it.
func (c *Checker) Start() {
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.CheckNow(context.Background())
			}
		}
	}()
}

// Stop ends the sweep goroutine and waits for it.
func (c *Checker) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// CheckNow probes every replica once, concurrently, and settles states.
func (c *Checker) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range c.urls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.probe(ctx, i)
		}(i)
	}
	wg.Wait()
}

// probe issues one /healthz request and folds the answer into the state.
// Each probe is its own root span so sampled gate traces show health
// sweeps next to the requests they shaped.
func (c *Checker) probe(ctx context.Context, i int) {
	ctx, span := c.tracer.StartRequest(ctx, "gate.healthprobe "+c.names[i], "")
	defer span.End()
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[i]+"/healthz", nil)
	if err != nil {
		c.fail(i)
		span.SetError()
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.fail(i)
		span.SetError()
		return
	}
	var body struct {
		Status string `json:"status"`
	}
	derr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if derr != nil {
		c.fail(i)
		span.SetError()
		return
	}
	switch body.Status {
	case "healthy":
		c.succeed(i, StateHealthy)
	case "degraded":
		c.succeed(i, StateDegraded)
	case "draining":
		// Announced via 503, but the process is up and finishing work.
		c.succeed(i, StateDraining)
	default:
		c.fail(i)
	}
}

func (c *Checker) succeed(i int, s ReplicaState) {
	c.fails[i].Store(0)
	c.setState(i, s)
}

func (c *Checker) fail(i int) {
	if int(c.fails[i].Add(1)) >= failThreshold {
		c.setState(i, StateDead)
	}
}

func (c *Checker) setState(i int, s ReplicaState) {
	if ReplicaState(c.states[i].Swap(int32(s))) != s && c.onState != nil {
		c.onState(i, s)
	}
}

// State returns replica i's current routing state.
func (c *Checker) State(i int) ReplicaState { return ReplicaState(c.states[i].Load()) }

// States returns a snapshot of every replica's state.
func (c *Checker) States() []ReplicaState {
	out := make([]ReplicaState, len(c.urls))
	for i := range out {
		out[i] = c.State(i)
	}
	return out
}

// ReportFailure is the passive path: the router saw a transport-level
// failure talking to replica i. It counts toward the ejection threshold,
// so a killed replica is usually ejected by the first request that hits
// the dead socket instead of waiting for the next sweep.
func (c *Checker) ReportFailure(i int) {
	if int(c.fails[i].Add(1)) >= failThreshold {
		c.setState(i, StateDead)
	}
}

// ReportSuccess is ReportFailure's counterpart: a proxied request got an
// HTTP response, proving the process is up. It resets the failure streak
// and revives an ejected replica (the next sweep refines healthy vs
// degraded).
func (c *Checker) ReportSuccess(i int) {
	c.fails[i].Store(0)
	if c.State(i) == StateDead {
		c.setState(i, StateHealthy)
	}
}
