// EngineObserver bridges the sim engine's Observer hook into the metric
// registry: virtual-time event accounting, and the "blocked" spans of
// Options.BlockSpans.

package obs

import "sync"

// EngineObserver implements sim.Observer, feeding a Scope. Create with
// NewEngineObserver and install with engine.SetObserver.
type EngineObserver struct {
	scope *Scope

	events   *Counter // sim_events_total
	depthMax *Gauge   // sim_queue_depth_max

	mu        sync.Mutex
	blockedAt map[string]float64 // proc -> virtual block time (BlockSpans)
}

// NewEngineObserver returns an observer recording into the scope. Returns
// nil (a valid no-op sim.Observer must not be nil-interfaced, so callers
// should skip SetObserver) when the scope is nil.
func NewEngineObserver(s *Scope) *EngineObserver {
	if s == nil {
		return nil
	}
	reg := s.Registry()
	o := &EngineObserver{
		scope:    s,
		events:   reg.Counter("sim_events_total"),
		depthMax: reg.Gauge("sim_queue_depth_max"),
	}
	if s.Options().BlockSpans {
		o.blockedAt = map[string]float64{}
	}
	return o
}

// OnAdvance implements sim.Observer.
func (o *EngineObserver) OnAdvance(now float64, fired, queueDepth int) {
	o.events.AddInt(int64(fired))
	o.depthMax.SetMax(float64(queueDepth + fired)) // depth before the batch fired
}

// OnBlock implements sim.Observer.
func (o *EngineObserver) OnBlock(proc string, now float64) {
	if o.blockedAt != nil {
		o.mu.Lock()
		o.blockedAt[proc] = now
		o.mu.Unlock()
	}
}

// OnWake implements sim.Observer.
func (o *EngineObserver) OnWake(proc string, now float64) {
	if o.blockedAt != nil {
		o.mu.Lock()
		start, ok := o.blockedAt[proc]
		if ok {
			delete(o.blockedAt, proc)
		}
		o.mu.Unlock()
		if ok && now > start {
			if pid, tid, bound := o.scope.LookupProc(proc); bound {
				o.scope.Span(pid, tid, "blocked", "sim", start, now)
			}
		}
	}
}
