// Profile capture for the observatory: the final rep of a benchmark runs
// under a CPU profile, followed by a heap profile, both written raw for
// `go tool pprof` to read. A live daemon needs no code here: pprof reads
// its -debug-addr listener directly.

package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// profiledMeasure is measure under a CPU profile written to
// dir/<name>.cpu.pprof, followed by the heap profile written to
// dir/<name>.heap.pprof, with "/" in the benchmark name replaced by "_".
func profiledMeasure(bm Bench, benchTime time.Duration, dir string) (sample, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sample{}, err
	}
	base := filepath.Join(dir, strings.ReplaceAll(bm.Name, "/", "_"))
	cpu, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return sample{}, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return sample{}, fmt.Errorf("cpu profile: %w", err)
	}
	s, err := measure(bm.F, benchTime)
	pprof.StopCPUProfile()
	if cerr := cpu.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return s, err
	}
	heap, err := os.Create(base + ".heap.pprof")
	if err != nil {
		return s, err
	}
	runtime.GC() // the heap profile reports as of the last completed GC
	err = pprof.Lookup("heap").WriteTo(heap, 0)
	if cerr := heap.Close(); err == nil {
		err = cerr
	}
	return s, err
}
