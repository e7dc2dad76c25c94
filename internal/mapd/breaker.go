// A consecutive-failure circuit breaker guarding the k! advisor search:
// when evaluations keep failing (typically timeouts under overload), the
// breaker opens and the advise endpoint answers from the cache or a cheap
// ring-cost heuristic instead of queueing more doomed searches. After a
// cooldown one probe evaluation is let through (half-open); its outcome
// closes or reopens the breaker.

package mapd

import (
	"sync"
	"time"
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // open duration before the half-open probe
	now       func() time.Time

	state    breakerState
	failures int
	openedAt time.Time

	// onState observes every state change (wired to a metrics gauge).
	onState func(breakerState)
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

func (b *breaker) setStateLocked(s breakerState) {
	if b.state == s {
		return
	}
	b.state = s
	if b.onState != nil {
		b.onState(s)
	}
}

// Allow reports whether an evaluation may start. While open it returns
// false until the cooldown elapses, then lets exactly one probe through by
// moving to half-open; further calls stay false until Record settles the
// probe.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.setStateLocked(breakerHalfOpen)
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// Record reports an evaluation outcome.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures = 0
		b.setStateLocked(breakerClosed)
		return
	}
	switch b.state {
	case breakerHalfOpen:
		b.openedAt = b.now()
		b.setStateLocked(breakerOpen)
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = b.now()
			b.setStateLocked(breakerOpen)
		}
	}
}

// State returns the current state.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
