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

// The serving objectives every tracker holds endpoints to.
const (
	// sloAvailability is the target success fraction.
	sloAvailability = 0.999
	// sloLatencyThreshold is the per-request latency objective.
	sloLatencyThreshold = 250 * time.Millisecond
	// sloLatencyObjective is the target fraction of requests under the
	// threshold.
	sloLatencyObjective = 0.99
	// fastBurnFactor is the burn rate that, sustained in both of the two
	// shortest windows, flags the tracker as fast-burning: 14, the
	// SRE-workbook page threshold.
	fastBurnFactor = 14
)

// sloWindows are the rolling windows, ascending. The first two drive the
// fast-burn condition.
var sloWindows = [...]time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}

// SLOOptions tunes an SLOTracker. The zero value is the serving tracker.
type SLOOptions struct {
	// Now is the clock (default time.Now). Tests inject a fake.
	Now func() time.Time
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
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &SLOTracker{
		opts:    opts,
		ringLen: int64(sloWindows[len(sloWindows)-1] / time.Second),
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
	if latency > sloLatencyThreshold {
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
func windowStats(ring []sloCell, nowSec, windowSec int64) (total, errors, slow uint64) {
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

// newWindowSLO derives a window's snapshot from its raw counts: the
// observed availability and the burn rates against the serving
// objectives.
func newWindowSLO(window string, requests, errors, slow uint64) WindowSLO {
	ws := WindowSLO{
		Window:           window,
		Requests:         requests,
		Errors:           errors,
		Slow:             slow,
		Availability:     1,
		AvailabilityBurn: burnRate(errors, requests, sloAvailability),
		LatencyBurn:      burnRate(slow, requests, sloLatencyObjective),
	}
	if requests > 0 {
		ws.Availability = float64(requests-errors) / float64(requests)
	}
	return ws
}

func burnRate(bad, total uint64, objective float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - objective)
}

// FastBurning reports the multi-window page condition on one endpoint:
// its availability or latency burn rate is at or above the fast-burn
// factor in both of its two shortest windows.
func (e EndpointSLO) FastBurning() bool {
	if len(e.Windows) < 2 {
		return false
	}
	w0, w1 := e.Windows[0], e.Windows[1]
	return w0.AvailabilityBurn >= fastBurnFactor && w1.AvailabilityBurn >= fastBurnFactor ||
		w0.LatencyBurn >= fastBurnFactor && w1.LatencyBurn >= fastBurnFactor
}

// endpointLocked snapshots one endpoint across the given windows.
func (t *SLOTracker) endpointLocked(name string, nowSec int64, windows []time.Duration) EndpointSLO {
	ring := *t.series[name]
	ep := EndpointSLO{Endpoint: name, Windows: make([]WindowSLO, 0, len(windows))}
	for _, w := range windows {
		total, errors, slow := windowStats(ring, nowSec, int64(w/time.Second))
		ep.Windows = append(ep.Windows, newWindowSLO(w.String(), total, errors, slow))
	}
	return ep
}

// Report snapshots every endpoint across every window, endpoints sorted
// by name.
func (t *SLOTracker) Report() SLOReport {
	rep := SLOReport{
		AvailabilityTarget: sloAvailability,
		LatencyThreshold:   sloLatencyThreshold.String(),
		LatencyObjective:   sloLatencyObjective,
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
		ep := t.endpointLocked(name, nowSec, sloWindows[:])
		rep.Endpoints = append(rep.Endpoints, ep)
		rep.FastBurning = rep.FastBurning || ep.FastBurning()
	}
	return rep
}

// FastBurning reports whether some endpoint is fast-burning
// (EndpointSLO.FastBurning). A nil tracker never burns.
func (t *SLOTracker) FastBurning() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nowSec := t.nowSecLocked()
	for name := range t.series {
		// The page condition reads only the two shortest windows.
		if t.endpointLocked(name, nowSec, sloWindows[:2]).FastBurning() {
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
