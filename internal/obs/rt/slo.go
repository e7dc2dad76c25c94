// Rolling multi-window SLO tracking with burn rates. Each endpoint keeps
// per-second cells in a fixed ring covering the longest window; a Record
// is O(1), a window snapshot is one pass over the ring, and nothing
// allocates on the hot path once an endpoint's series exists.
//
// Two objectives are tracked per endpoint:
//
//   - availability: fraction of requests that did not fail server-side
//     (5xx, including shed 503s — a shed request is still a user-visible
//     failure);
//   - latency: fraction of requests answered under the threshold.
//
// The burn rate is the classic SRE ratio: (observed bad fraction) /
// (error budget). Burn 1.0 consumes exactly the whole budget if sustained
// over the SLO period; a fast burn (well above 1 in both the short and
// the medium window) means the budget disappears in hours, which is the
// multi-window page condition /healthz surfaces as "degraded" before the
// circuit breaker ever sees a failure.

package rt

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// SLOOptions tunes an SLOTracker. The zero value picks the serving
// defaults.
type SLOOptions struct {
	// Availability is the target success fraction (default 0.999).
	Availability float64
	// LatencyThreshold is the per-request latency objective (default
	// 250ms).
	LatencyThreshold time.Duration
	// LatencyObjective is the target fraction of requests under the
	// threshold (default 0.99).
	LatencyObjective float64
	// Windows are the rolling windows, ascending (default 1m, 5m, 30m).
	// The first two drive the fast-burn condition.
	Windows []time.Duration
	// Now is the clock (default time.Now). Tests inject a fake.
	Now func() time.Time
}

// fastBurnFactor is the burn rate that, sustained in both of the two
// shortest windows, flags the tracker as fast-burning: 14, the
// SRE-workbook page threshold.
const fastBurnFactor = 14

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Availability == 0 {
		o.Availability = 0.999
	}
	if o.LatencyThreshold == 0 {
		o.LatencyThreshold = 250 * time.Millisecond
	}
	if o.LatencyObjective == 0 {
		o.LatencyObjective = 0.99
	}
	if len(o.Windows) == 0 {
		o.Windows = []time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// sloCell is one second of one endpoint's traffic.
type sloCell struct {
	sec    int64 // unix second this cell currently holds
	total  uint64
	errors uint64 // 5xx responses
	slow   uint64 // latency over the threshold
}

// SLOTracker records request outcomes and answers burn-rate queries.
type SLOTracker struct {
	opts    SLOOptions
	ringLen int64 // seconds covered by each ring (longest window)

	mu      sync.Mutex
	series  map[string]*[]sloCell
	lastSec int64 // monotonic clamp against clock skew
}

// NewSLOTracker returns a tracker with the given options.
func NewSLOTracker(opts SLOOptions) *SLOTracker {
	opts = opts.withDefaults()
	longest := opts.Windows[len(opts.Windows)-1]
	ringLen := int64(longest / time.Second)
	if ringLen < 1 {
		ringLen = 1
	}
	return &SLOTracker{
		opts:    opts,
		ringLen: ringLen,
		series:  map[string]*[]sloCell{},
	}
}

// nowSecLocked returns the current unix second, clamped so time never
// runs backwards for the tracker even when the wall clock does (NTP
// steps, VM suspends): skewed samples are attributed to the newest second
// already seen instead of resurrecting expired cells.
func (t *SLOTracker) nowSecLocked() int64 {
	sec := t.opts.Now().Unix()
	if sec < t.lastSec {
		return t.lastSec
	}
	t.lastSec = sec
	return sec
}

// Record stores one request outcome. A nil tracker is a no-op.
func (t *SLOTracker) Record(endpoint string, code int, latency time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sec := t.nowSecLocked()
	ring := t.series[endpoint]
	if ring == nil {
		cells := make([]sloCell, t.ringLen)
		ring = &cells
		t.series[endpoint] = ring
	}
	cell := &(*ring)[sec%t.ringLen]
	if cell.sec != sec {
		*cell = sloCell{sec: sec}
	}
	cell.total++
	if code >= 500 {
		cell.errors++
	}
	if latency > t.opts.LatencyThreshold {
		cell.slow++
	}
}

// WindowSLO is one endpoint×window burn-rate snapshot.
type WindowSLO struct {
	Window   string `json:"window"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Slow     uint64 `json:"slow"`
	// Availability is the observed success fraction (1 on an empty
	// window: no traffic burns no budget).
	Availability float64 `json:"availability"`
	// AvailabilityBurn / LatencyBurn are the burn rates against the
	// respective error budgets (0 on an empty window).
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
}

// EndpointSLO is one endpoint's snapshot across every window.
type EndpointSLO struct {
	Endpoint string      `json:"endpoint"`
	Windows  []WindowSLO `json:"windows"`
}

// SLOReport is the /v1/slo response body.
type SLOReport struct {
	AvailabilityTarget float64       `json:"availability_target"`
	LatencyThreshold   string        `json:"latency_threshold"`
	LatencyObjective   float64       `json:"latency_objective"`
	FastBurnFactor     float64       `json:"fast_burn_factor"`
	FastBurning        bool          `json:"fast_burning"`
	Endpoints          []EndpointSLO `json:"endpoints"`
}

// windowStats sums the ring cells inside (now-window, now].
func (t *SLOTracker) windowStatsLocked(ring []sloCell, nowSec, windowSec int64) (total, errors, slow uint64) {
	lo := nowSec - windowSec // exclusive
	for i := range ring {
		c := &ring[i]
		if c.total == 0 || c.sec <= lo || c.sec > nowSec {
			continue
		}
		total += c.total
		errors += c.errors
		slow += c.slow
	}
	return total, errors, slow
}

func burnRate(bad, total uint64, objective float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - objective
	if budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// Report snapshots every endpoint across every window, endpoints sorted
// by name.
func (t *SLOTracker) Report() SLOReport {
	rep := SLOReport{
		AvailabilityTarget: t.opts.Availability,
		LatencyThreshold:   t.opts.LatencyThreshold.String(),
		LatencyObjective:   t.opts.LatencyObjective,
		FastBurnFactor:     fastBurnFactor,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nowSec := t.nowSecLocked()
	names := make([]string, 0, len(t.series))
	for name := range t.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ring := *t.series[name]
		ep := EndpointSLO{Endpoint: name}
		for _, w := range t.opts.Windows {
			total, errors, slow := t.windowStatsLocked(ring, nowSec, int64(w/time.Second))
			ws := WindowSLO{
				Window:           w.String(),
				Requests:         total,
				Errors:           errors,
				Slow:             slow,
				Availability:     1,
				AvailabilityBurn: burnRate(errors, total, t.opts.Availability),
				LatencyBurn:      burnRate(slow, total, t.opts.LatencyObjective),
			}
			if total > 0 {
				ws.Availability = float64(total-errors) / float64(total)
			}
			ep.Windows = append(ep.Windows, ws)
		}
		rep.Endpoints = append(rep.Endpoints, ep)
	}
	rep.FastBurning = t.fastBurningLocked(nowSec)
	return rep
}

// FastBurning reports the multi-window page condition: some endpoint's
// availability or latency burn rate is at or above the fast-burn factor
// in both of the two shortest windows. A nil tracker never burns.
func (t *SLOTracker) FastBurning() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fastBurningLocked(t.nowSecLocked())
}

func (t *SLOTracker) fastBurningLocked(nowSec int64) bool {
	short := int64(t.opts.Windows[0] / time.Second)
	mid := short
	if len(t.opts.Windows) > 1 {
		mid = int64(t.opts.Windows[1] / time.Second)
	}
	for _, ring := range t.series {
		st, se, ss := t.windowStatsLocked(*ring, nowSec, short)
		mt, me, ms := t.windowStatsLocked(*ring, nowSec, mid)
		availFast := burnRate(se, st, t.opts.Availability) >= fastBurnFactor &&
			burnRate(me, mt, t.opts.Availability) >= fastBurnFactor
		latFast := burnRate(ss, st, t.opts.LatencyObjective) >= fastBurnFactor &&
			burnRate(ms, mt, t.opts.LatencyObjective) >= fastBurnFactor
		if availFast || latFast {
			return true
		}
	}
	return false
}

// Publish mirrors the current burn rates into reg as slo_burn_rate
// gauges (labels: endpoint, window, slo) plus the slo_fast_burning
// flag, for Prometheus consumers. A nil tracker is a no-op.
func (t *SLOTracker) Publish(reg *obs.Registry) {
	if t == nil {
		return
	}
	rep := t.Report()
	for _, ep := range rep.Endpoints {
		for _, w := range ep.Windows {
			reg.Gauge("slo_burn_rate",
				obs.L("endpoint", ep.Endpoint), obs.L("slo", "availability"), obs.L("window", w.Window)).
				Set(w.AvailabilityBurn)
			reg.Gauge("slo_burn_rate",
				obs.L("endpoint", ep.Endpoint), obs.L("slo", "latency"), obs.L("window", w.Window)).
				Set(w.LatencyBurn)
		}
	}
	flag := 0.0
	if rep.FastBurning {
		flag = 1
	}
	reg.Gauge("slo_fast_burning").Set(flag)
}
