// Metric registry: counters, gauges, and histograms with fixed log-scale
// buckets, addressed by name + label set. Metric handles are cheap to
// cache and safe for concurrent use; nil handles are no-ops so callers
// can resolve them once and use them unconditionally.

package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Label is one metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds a run's metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	helps    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		helps:    map[string]string{},
	}
}

// SetHelp registers the # HELP text WritePrometheus emits for the metric
// name (shared across its label sets). Nil-safe; the last call wins.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.helps[name] = help
	r.mu.Unlock()
}

// help returns the registered help text for name, or "".
func (r *Registry) help(name string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.helps[name]
}

// Counter is a monotonically increasing value.
type Counter struct {
	name   string
	labels []Label
	mu     sync.Mutex
	v      float64
}

// Gauge is a point-in-time value.
type Gauge struct {
	name   string
	labels []Label
	mu     sync.Mutex
	v      float64
	set    bool
}

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// boundaries (inclusive), typically log-spaced; one implicit +Inf bucket
// catches the overflow.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64
	mu     sync.Mutex
	counts []uint64
	inf    uint64
	sum    float64
	n      uint64
}

// Counter returns (creating if needed) the counter with the name and
// labels. Nil-safe: a nil registry returns a nil counter, whose methods
// are no-ops.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[key]
	if c == nil {
		c = &Counter{name: name, labels: append([]Label(nil), labels...)}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{name: name, labels: append([]Label(nil), labels...)}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the name,
// bucket bounds and labels. The bounds of the first creation win; they
// must be sorted ascending.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[key]
	if h == nil {
		h = &Histogram{
			name:   name,
			labels: append([]Label(nil), labels...),
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)),
		}
		r.hists[key] = h
	}
	return h
}

// Add increases the counter by v (negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.mu.Lock()
	c.v += v
	c.mu.Unlock()
}

// AddInt increases the counter by an integer delta.
func (c *Counter) AddInt(v int64) { c.Add(float64(v)) }

// Value returns the counter's current value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v, g.set = v, true
	g.mu.Unlock()
}

// Add adjusts the gauge by delta (for up/down quantities like in-flight
// request counts).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v, g.set = g.v+delta, true
	g.mu.Unlock()
}

// SetMax stores v if it exceeds the current value (or none is set).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.set || v > g.v {
		g.v, g.set = v, true
	}
	g.mu.Unlock()
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	// Log-spaced bounds are few (≈10); linear scan beats binary search.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.inf++
	}
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// LogBuckets returns count upper bounds base^minExp, base^(minExp+1), …
// — the fixed log-scale bucket layout of the issue.
func LogBuckets(base float64, minExp, count int) []float64 {
	out := make([]float64, count)
	v := pow(base, minExp)
	for i := range out {
		out[i] = v
		v *= base
	}
	return out
}

func pow(base float64, exp int) float64 {
	v := 1.0
	if exp >= 0 {
		for i := 0; i < exp; i++ {
			v *= base
		}
		return v
	}
	for i := 0; i < -exp; i++ {
		v /= base
	}
	return v
}

// SearchBuckets returns the bucket layout for order-search latencies:
// power-of-two buckets from ~1 µs to ~8 s, fine enough to separate the
// equivalence-class fast path from a full k! evaluation.
func SearchBuckets() []float64 { return LogBuckets(2, -20, 24) }

// WallBuckets returns the default wall-clock latency layout: decades from
// 100 ns to 1 s.
func WallBuckets() []float64 { return LogBuckets(10, -7, 8) }

// Point is one metric in a registry snapshot. For histograms Value is the
// sample sum, Count the sample count, and BucketCounts the per-bound
// cumulative-free counts (the +Inf bucket is Count minus their sum).
type Point struct {
	Name         string
	Labels       []Label
	Type         string // "counter", "gauge", "histogram"
	Value        float64
	Count        uint64
	Bounds       []float64
	BucketCounts []uint64
}

// key orders points deterministically.
func (p Point) key() string { return p.Name + labelString(p.Labels) }

// Snapshot returns every metric's current state, sorted by name+labels.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	pts := make([]Point, 0, len(counters)+len(gauges)+len(hists))
	for _, c := range counters {
		c.mu.Lock()
		pts = append(pts, Point{Name: c.name, Labels: c.labels, Type: "counter", Value: c.v})
		c.mu.Unlock()
	}
	for _, g := range gauges {
		g.mu.Lock()
		pts = append(pts, Point{Name: g.name, Labels: g.labels, Type: "gauge", Value: g.v})
		g.mu.Unlock()
	}
	for _, h := range hists {
		h.mu.Lock()
		pts = append(pts, Point{
			Name: h.name, Labels: h.labels, Type: "histogram",
			Value: h.sum, Count: h.n,
			Bounds:       append([]float64(nil), h.bounds...),
			BucketCounts: append([]uint64(nil), h.counts...),
		})
		h.mu.Unlock()
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].key() < pts[j].key() })
	return pts
}

// FindCounter returns the current value of the counter with the given
// name and labels, or 0 when absent.
func (r *Registry) FindCounter(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	key := name + labelString(labels)
	r.mu.Lock()
	c := r.counters[key]
	r.mu.Unlock()
	return c.Value()
}

// FindGauge returns the current value of the gauge with the given name
// and labels, or 0 when absent.
func (r *Registry) FindGauge(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	key := name + labelString(labels)
	r.mu.Lock()
	g := r.gauges[key]
	r.mu.Unlock()
	return g.Value()
}

// SumCounters returns the summed value of every counter with the name,
// across all label sets.
func (r *Registry) SumCounters(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	var cs []*Counter
	for _, c := range r.counters {
		if c.name == name {
			cs = append(cs, c)
		}
	}
	r.mu.Unlock()
	var sum float64
	for _, c := range cs {
		sum += c.Value()
	}
	return sum
}

// formatValue renders a metric value without scientific-notation noise
// for integers while keeping full float precision otherwise.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
