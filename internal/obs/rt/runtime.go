// Background runtime-metrics sampler: publishes Go runtime health
// (goroutines, live heap, GC cycles and pause distribution, open file
// descriptors) into an obs.Registry so the serving /metrics endpoint
// exposes process vitals next to the request metrics. GC pauses come from
// the MemStats pause ring — each completed cycle since the previous
// sample is Observed individually, so the histogram is a true pause
// distribution, not a running average.

package rt

import (
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// SamplerOptions tunes a Sampler.
type SamplerOptions struct {
	// Registry receives the rt_* metrics (required; a nil registry makes
	// every sample a no-op).
	Registry *obs.Registry
}

const (
	// sampleInterval is the time between samples.
	sampleInterval = 5 * time.Second
	// procFDDir is the directory whose entries are counted as open file
	// descriptors; counting is skipped when it is unreadable (off-Linux).
	procFDDir = "/proc/self/fd"
)

// Sampler periodically publishes runtime metrics until stopped.
type Sampler struct {
	fdDir string // procFDDir; tests point it elsewhere

	goroutines *obs.Gauge
	heapAlloc  *obs.Gauge
	openFDs    *obs.Gauge
	gcRuns     *obs.Counter
	gcPause    *obs.Histogram

	mu        sync.Mutex
	lastNumGC uint32

	stop chan struct{}
	done chan struct{}
}

// StartSampler begins sampling on its own goroutine (one sample is taken
// synchronously before it returns, so metrics exist immediately). Call
// Stop to halt it.
func StartSampler(opts SamplerOptions) *Sampler {
	reg := opts.Registry
	s := &Sampler{
		fdDir:      procFDDir,
		goroutines: reg.Gauge("rt_goroutines"),
		heapAlloc:  reg.Gauge("rt_heap_alloc_bytes"),
		openFDs:    reg.Gauge("rt_open_fds"),
		gcRuns:     reg.Counter("rt_gc_runs_total"),
		gcPause:    reg.Histogram("rt_gc_pause_seconds", obs.WallBuckets()),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	s.SampleOnce()
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(sampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.SampleOnce()
		case <-s.stop:
			return
		}
	}
}

// Stop halts the sampler and waits for its goroutine to exit. Safe to
// call once; a nil sampler is a no-op.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// SampleOnce takes one sample synchronously. Safe for concurrent use.
func (s *Sampler) SampleOnce() {
	if s == nil {
		return
	}
	s.goroutines.Set(float64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapAlloc.Set(float64(ms.HeapAlloc))

	s.mu.Lock()
	prev := s.lastNumGC
	cur := ms.NumGC
	if cur > prev {
		s.gcRuns.AddInt(int64(cur - prev))
		// The pause ring holds the last 256 cycles; older ones are gone.
		lo := prev
		if cur > 256 && lo < cur-256 {
			lo = cur - 256
		}
		for i := lo; i < cur; i++ {
			s.gcPause.Observe(float64(ms.PauseNs[i%256]) / 1e9)
		}
	}
	s.lastNumGC = cur
	s.mu.Unlock()

	if ents, err := os.ReadDir(s.fdDir); err == nil {
		s.openFDs.Set(float64(len(ents)))
	}
}
