package rt

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestSamplerPublishesRuntimeMetrics: one synchronous sample fills the
// gauges; forced GC cycles land in the pause histogram.
func TestSamplerPublishesRuntimeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := StartSampler(SamplerOptions{Registry: reg})
	defer s.Stop()

	runtime.GC()
	runtime.GC()
	s.SampleOnce()

	if g := reg.FindGauge("rt_goroutines"); g < 1 {
		t.Fatalf("rt_goroutines = %g", g)
	}
	if g := reg.FindGauge("rt_heap_alloc_bytes"); g <= 0 {
		t.Fatalf("rt_heap_alloc_bytes = %g", g)
	}
	if c := reg.FindCounter("rt_gc_runs_total"); c < 2 {
		t.Fatalf("rt_gc_runs_total = %g after two forced GCs", c)
	}
	var pauseSamples uint64
	for _, p := range reg.Snapshot() {
		if p.Name == "rt_gc_pause_seconds" {
			pauseSamples = p.Count
		}
	}
	if pauseSamples < 2 {
		t.Fatalf("rt_gc_pause_seconds has %d samples, want >= 2", pauseSamples)
	}
}

// TestSamplerConcurrent hammers SampleOnce from many goroutines — the
// -race gate for the sampler, whose background loop is one more such
// caller.
func TestSamplerConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	s := StartSampler(SamplerOptions{Registry: reg})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.SampleOnce()
				if j%10 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	s.Stop()
	// Stop is idempotent in effect: the loop is gone, but sampling
	// synchronously still works.
	s.SampleOnce()
	if g := reg.FindGauge("rt_goroutines"); g < 1 {
		t.Fatalf("rt_goroutines = %g", g)
	}
}

// TestSamplerFDCount: the fd gauge counts the entries of the fd
// directory; a bogus directory silently skips the gauge instead of
// failing.
func TestSamplerFDCount(t *testing.T) {
	reg := obs.NewRegistry()
	s := StartSampler(SamplerOptions{Registry: reg})
	defer s.Stop()
	s.fdDir = t.TempDir()
	s.SampleOnce()
	if g := reg.FindGauge("rt_open_fds"); g != 0 {
		t.Fatalf("empty fd dir counted %g fds", g)
	}

	reg2 := obs.NewRegistry()
	s2 := StartSampler(SamplerOptions{Registry: reg2})
	defer s2.Stop()
	s2.fdDir = "/nonexistent-fd-dir"
	s2.SampleOnce() // must not panic or set the gauge
}
