// Package layers holds the per-layer probes of the traced run: short
// in-process measurements that time one public function of one layer and
// count its allocations exactly. Only cmd/mrlayers imports it, so the
// untraced run neither links nor depends on anything the probes touch.
// The probes do not depend on the workload's window; a traced run of a
// workload runs the one family that times that workload's layers.
package layers

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Metrics maps a per-layer metric name to its value.
type Metrics map[string]float64

// batches is how many timed batches a probe takes; the reported time is
// the median batch, so a collection or a scheduling hiccup in one batch
// does not move it.
const batches = 5

// perOp runs f in batches of reps calls and returns the median time per
// call in nanoseconds and the allocations per call, counted over all the
// batches.
func perOp(reps int, f func()) (ns, allocs float64) {
	f() // first-use costs stay outside the measurement
	var before, after runtime.MemStats
	times := make([]float64, 0, batches)
	runtime.ReadMemStats(&before)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/float64(reps))
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(times)
	return times[batches/2], float64(after.Mallocs-before.Mallocs) / float64(batches*reps)
}

// once times a single call of a probe too long to repeat, in
// milliseconds, with its allocation count.
func once(f func()) (ms, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / 1e6, float64(after.Mallocs - before.Mallocs)
}

// families are the probe sets, one per workload: each times the layers
// that workload's ops spend their time in.
var families = map[string]func(Metrics) error{
	"serving": probeServing, // serve_hot
	"rank":    probeRank,    // serve_cold
	"deep":    probeDeep,    // search_deep
	"sim":     probeSim,     // sim_figs
	"core":    probeCore,    // enum_core
}

// Run executes the named probe families and returns their per-layer
// metrics.
func Run(names ...string) (Metrics, error) {
	m := Metrics{}
	for _, name := range names {
		probe, ok := families[name]
		if !ok {
			return nil, fmt.Errorf("layers: no probe family %q", name)
		}
		if err := probe(m); err != nil {
			return nil, fmt.Errorf("layers: %s: %w", name, err)
		}
		// Each family starts from a collected heap, so one family's
		// garbage is not collected on another's clock.
		runtime.GC()
	}
	return m, nil
}
