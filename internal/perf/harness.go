// The in-process benchmark harness: a minimal go-bench-compatible
// measurement loop the suite registry runs its benchmarks under. Owning
// the loop (instead of delegating to testing.Benchmark) buys the
// observatory three things: a 1-iteration smoke mode fast enough for
// `make check`, repeated independent samples for the significance test,
// and a hook to wrap exactly the timed region in a CPU profile.

package perf

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// B is the benchmark context handed to suite benchmark functions. It
// mirrors the subset of testing.B the suites need: run the body exactly
// b.N times between ResetTimer and return.
type B struct {
	// N is the iteration count the body must execute.
	N int

	start    time.Time
	elapsed  time.Duration
	timerOn  bool
	metrics  map[string]float64
	failed   bool
	failMsg  string
	mallocs0 uint64
	bytes0   uint64
	mallocs  uint64
	bytes    uint64
}

// ResetTimer discards accumulated time and allocation counts — call it
// after expensive setup, exactly like testing.B.
func (b *B) ResetTimer() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.mallocs0, b.bytes0 = ms.Mallocs, ms.TotalAlloc
	b.elapsed = 0
	b.start = time.Now()
	b.timerOn = true
}

// StopTimer pauses measurement (e.g. around per-iteration teardown).
func (b *B) StopTimer() {
	if b.timerOn {
		b.elapsed += time.Since(b.start)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.mallocs += ms.Mallocs - b.mallocs0
		b.bytes += ms.TotalAlloc - b.bytes0
		b.timerOn = false
	}
}

// ReportMetric records a custom unit (req/s, MB/s, p99_ms …); the last
// call per unit wins, matching testing.B semantics.
func (b *B) ReportMetric(v float64, unit string) {
	if b.metrics == nil {
		b.metrics = map[string]float64{}
	}
	b.metrics[unit] = v
}

// Fatalf aborts the benchmark, failing its suite run.
func (b *B) Fatalf(format string, args ...any) {
	b.failed = true
	b.failMsg = fmt.Sprintf(format, args...)
	panic(benchAbort{})
}

type benchAbort struct{}

// run executes fn once with the given N and returns the measurement.
func (b *B) run(fn func(*B), n int) (err error) {
	b.N = n
	b.metrics = nil
	b.mallocs, b.bytes = 0, 0
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(benchAbort); ok {
				err = fmt.Errorf("benchmark failed: %s", b.failMsg)
				return
			}
			panic(r)
		}
	}()
	b.ResetTimer()
	fn(b)
	b.StopTimer()
	return nil
}

// sample is one timed execution of a benchmark body.
type sample struct {
	n       int
	nsPerOp float64
	allocs  float64
	bytes   float64
	metrics map[string]float64
}

// measure runs fn with iteration counts scaled up until the timed region
// reaches benchTime (exactly the go test ramp: 1, then predicted·1.2,
// rounded up to a nice number), and returns the final measurement.
func measure(fn func(*B), benchTime time.Duration) (sample, error) {
	var b B
	n := 1
	for {
		if err := b.run(fn, n); err != nil {
			return sample{}, err
		}
		if b.elapsed >= benchTime || n >= 1e9 {
			break
		}
		// Predict the iteration count that reaches benchTime, grow by
		// at least 20% and at most 100×, and round up.
		goal := float64(n) * 1.2
		if b.elapsed > 0 {
			goal = float64(n) * float64(benchTime) / float64(b.elapsed)
		}
		next := int(math.Min(goal*1.2, float64(n)*100))
		if next <= n {
			next = n + 1
		}
		n = roundUp(next)
	}
	s := sample{
		n:       b.N,
		nsPerOp: float64(b.elapsed.Nanoseconds()) / float64(b.N),
		allocs:  float64(b.mallocs) / float64(b.N),
		bytes:   float64(b.bytes) / float64(b.N),
		metrics: b.metrics,
	}
	return s, nil
}

// roundUp rounds n up to a number of the form 1eX, 2eX, 3eX, 5eX — the
// go test iteration-count ladder, kept so the printed counts look familiar.
func roundUp(n int) int {
	base := 1
	for base < n {
		for _, m := range []int{1, 2, 3, 5} {
			if base*m >= n {
				return base * m
			}
		}
		base *= 10
	}
	return base
}

// RunOptions tunes one suite execution.
type RunOptions struct {
	// Reps is the number of independent samples per benchmark (default 5;
	// the significance test needs ≥ 3 on both sides).
	Reps int
	// BenchTime is the per-sample target duration (default 200 ms).
	BenchTime time.Duration
	// Smoke runs every benchmark for exactly one iteration, once —
	// existence checking for make check, not measurement.
	Smoke bool
	// Profile, when set, is a directory: each benchmark's final rep runs
	// under a CPU profile written to Profile/<name>.cpu.pprof, followed by
	// a heap profile in Profile/<name>.heap.pprof ("/" in the name
	// replaced by "_"), for `go tool pprof` to read.
	Profile string
	// Logf, when non-nil, receives one go-bench-style line per result.
	Logf func(format string, args ...any)
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.BenchTime <= 0 {
		o.BenchTime = 200 * time.Millisecond
	}
	return o
}

// runBench collects the configured samples for one benchmark.
func runBench(bm Bench, opts RunOptions) (Result, error) {
	res := Result{Name: bm.Name}
	if opts.Smoke {
		var b B
		if err := b.run(bm.F, 1); err != nil {
			return res, err
		}
		res.N = 1
		res.NsPerOp = float64(b.elapsed.Nanoseconds())
		res.Samples = []float64{res.NsPerOp}
		res.Metrics = b.metrics
		return res, nil
	}
	var nsSamples, allocSamples, byteSamples []float64
	for rep := 0; rep < opts.Reps; rep++ {
		var s sample
		var err error
		if opts.Profile != "" && rep == opts.Reps-1 {
			s, err = profiledMeasure(bm, opts.BenchTime, opts.Profile)
		} else {
			s, err = measure(bm.F, opts.BenchTime)
		}
		if err != nil {
			return res, err
		}
		res.N = s.n
		res.Metrics = s.metrics
		nsSamples = append(nsSamples, s.nsPerOp)
		allocSamples = append(allocSamples, s.allocs)
		byteSamples = append(byteSamples, s.bytes)
	}
	res.Samples = nsSamples
	res.NsPerOp = median(nsSamples)
	res.AllocsPerOp = median(allocSamples)
	res.BytesPerOp = median(byteSamples)
	return res, nil
}

// median returns the middle value (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
