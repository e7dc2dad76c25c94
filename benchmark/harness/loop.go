package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// System is a set-up system under test, as the closed loop sees it.
type System struct {
	// Clients is the number of closed-loop clients: each sends its next
	// op only after its previous one completed.
	Clients int
	// Do performs one op for a client and reports whether it succeeded.
	// lane is nil unless the op is traced.
	Do func(client int, op Op, lane *Lane) bool
	// CPU returns the cumulative CPU time of the system under test.
	CPU func() (time.Duration, error)
	// Alive returns an error once the system can no longer be measured,
	// such as a child process that exited; nil when there is nothing to
	// watch.
	Alive func() error
}

// Window is what one measured window produced.
type Window struct {
	Samples []Sample
	CPU     []CPUPoint
}

// cpuEvery is the spacing of the CPU readings; Summarize interpolates
// between them at sub-window boundaries.
const cpuEvery = 250 * time.Millisecond

// tracedSpan is the length of the alternating traced and untraced
// stretches of a traced run.
const tracedSpan = time.Second

// Traced reports whether an op issued at instant start of a traced run
// records spans.
func Traced(start time.Duration) bool { return int(start/tracedSpan)%2 == 0 }

// RunWindow drives sys in a closed loop for the given length, taking ops
// from position first of the schedule on. No op is issued after the
// window closes; those in flight are completed. With a recorder, ops
// issued in even seconds are traced and those in odd seconds are not, so
// one run holds both sides of the tracing-overhead comparison.
func RunWindow(sched *Schedule, sys System, first int, length time.Duration, rec *Recorder) (Window, error) {
	var next atomic.Int64
	next.Store(int64(first))
	perClient := make([][]Sample, sys.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sys.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				op := sched.At(int(next.Add(1) - 1))
				t0 := time.Since(start)
				if t0 >= length {
					return
				}
				var lane *Lane
				if Traced(t0) {
					lane = rec.Lane(c)
				}
				ok := sys.Do(c, op, lane)
				perClient[c] = append(perClient[c], Sample{Index: op.Index, Start: t0,
					Latency: time.Since(start) - t0, Class: op.Class, OK: ok})
			}
		}(c)
	}

	// The sampler reads the CPU clock a few times a second and fails the
	// run, instead of letting it skew, if the system died.
	var w Window
	var sampleErr error
	for at := time.Duration(0); ; at += cpuEvery {
		time.Sleep(time.Until(start.Add(at)))
		cpu, err := sys.CPU()
		if err == nil && sys.Alive != nil {
			err = sys.Alive()
		}
		if err != nil && sampleErr == nil {
			sampleErr = fmt.Errorf("%v into the window: %w", at, err)
		}
		w.CPU = append(w.CPU, CPUPoint{At: time.Since(start), CPU: cpu})
		if at >= length {
			break
		}
	}
	wg.Wait()
	for _, s := range perClient {
		w.Samples = append(w.Samples, s...)
	}
	return w, sampleErr
}

// WarmUp performs ops [first, first+n) on sys, untimed and untraced, and
// fails on the first op that fails.
func WarmUp(sched *Schedule, sys System, first, n int) error {
	var next atomic.Int64
	next.Store(int64(first))
	errs := make(chan error, sys.Clients)
	for c := 0; c < sys.Clients; c++ {
		go func(c int) {
			for {
				i := int(next.Add(1) - 1)
				if i >= first+n {
					errs <- nil
					return
				}
				if !sys.Do(c, sched.At(i), nil) {
					errs <- fmt.Errorf("warm-up op %d failed", i)
					return
				}
			}
		}(c)
	}
	var first1 error
	for c := 0; c < sys.Clients; c++ {
		if err := <-errs; err != nil && first1 == nil {
			first1 = err
		}
	}
	return first1
}
