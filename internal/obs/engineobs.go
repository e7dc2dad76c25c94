// EngineObserver bridges the sim engine's Observer hook into the metric
// registry: virtual-time event accounting plus the wall-clock engine
// health metrics (events per wall second, process wake latency). Wall
// metrics carry "wall" in their names so deterministic consumers (golden
// tests, diffable artifacts) can filter them.

package obs

import (
	"sync"
	"time"
)

// EngineObserver implements sim.Observer, feeding a Scope. Create with
// NewEngineObserver, install with engine.SetObserver, and call Finish
// after the run to seal the rate metrics.
type EngineObserver struct {
	scope *Scope

	events   *Counter   // sim_events_total
	advances *Counter   // sim_advances_total (distinct virtual instants)
	depthMax *Gauge     // sim_queue_depth_max
	blocks   *Counter   // sim_blocks_total
	wakeHist *Histogram // sim_wall_wake_latency_seconds

	wallStart time.Time

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
		scope:     s,
		events:    reg.Counter("sim_events_total"),
		advances:  reg.Counter("sim_advances_total"),
		depthMax:  reg.Gauge("sim_queue_depth_max"),
		blocks:    reg.Counter("sim_blocks_total"),
		wakeHist:  reg.Histogram("sim_wall_wake_latency_seconds", WallBuckets()),
		wallStart: time.Now(),
	}
	if s.Options().BlockSpans {
		o.blockedAt = map[string]float64{}
	}
	return o
}

// OnAdvance implements sim.Observer.
func (o *EngineObserver) OnAdvance(now float64, fired, queueDepth int) {
	o.events.AddInt(int64(fired))
	o.advances.AddInt(1)
	o.depthMax.SetMax(float64(queueDepth + fired)) // depth before the batch fired
}

// OnBlock implements sim.Observer.
func (o *EngineObserver) OnBlock(proc string, now float64) {
	o.blocks.AddInt(1)
	if o.blockedAt != nil {
		o.mu.Lock()
		o.blockedAt[proc] = now
		o.mu.Unlock()
	}
}

// OnWake implements sim.Observer.
func (o *EngineObserver) OnWake(proc string, now float64, wallLatency float64) {
	if wallLatency > 0 {
		o.wakeHist.Observe(wallLatency)
	}
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

// Finish seals wall-rate metrics: sim_wall_events_per_second and
// sim_wall_seconds. Call once, after engine.Run returns.
func (o *EngineObserver) Finish() {
	if o == nil {
		return
	}
	wall := time.Since(o.wallStart).Seconds()
	reg := o.scope.Registry()
	reg.Gauge("sim_wall_seconds").Set(wall)
	if wall > 0 {
		reg.Gauge("sim_wall_events_per_second").Set(o.events.Value() / wall)
	}
}
