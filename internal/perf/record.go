// Package perf is the performance observatory: a declarative benchmark
// registry whose suites sweep the scenario space (hierarchy shape × depth
// × collective × comm size × search mode), a versioned on-disk record
// format for benchmark trajectories, and a benchstat-style comparator with
// significance testing that gates regressions in CI. Where the time went
// is `go tool pprof`'s to say: a run with RunOptions.Profile writes each
// benchmark's raw CPU and heap profiles for it to read.
//
// The package is deliberately self-contained (no external dependencies):
// suites run in-process through a small go-bench-compatible harness, so
// `mrperf smoke` can run every registered benchmark for one iteration in
// milliseconds and `make bench-gate` can compare a fresh run against the
// committed trajectory point without shelling out to go test.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// SchemaVersion identifies the BENCH_<suite>.json record layout. Bump it
// when the format changes incompatibly; Diff refuses to compare records
// of different versions.
const SchemaVersion = 1

// Record is one trajectory point of one suite: the environment it ran
// in, the configuration of the run, and every benchmark's samples.
type Record struct {
	Schema int    `json:"schema"`
	Suite  string `json:"suite"`
	// GitSHA and Timestamp are passed in by the caller (the Makefile /
	// CI), never sampled here, so records are attributable and replayable.
	GitSHA    string `json:"git_sha,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	NumCPU    int    `json:"num_cpu"`

	// Reps is how many independent samples each benchmark collected;
	// BenchTime the per-sample target duration.
	Reps      int    `json:"reps"`
	BenchTime string `json:"bench_time"`

	Results []Result `json:"results"`
}

// Result is one benchmark's measurements within a record.
type Result struct {
	// Name is the go-bench-style benchmark name, e.g.
	// "OrderSearch/h=4,2,4,2,4,2/alltoall/c=64/pruned".
	Name string `json:"name"`
	// N is the iteration count of the last sample.
	N int `json:"n"`
	// NsPerOp is the median over Samples.
	NsPerOp float64 `json:"ns_per_op"`
	// Samples holds one ns/op measurement per rep, in run order.
	Samples []float64 `json:"samples"`
	// AllocsPerOp / BytesPerOp are allocation medians over the reps.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Metrics carries custom units (req/s, goodput_req_s, p99_ms, MB/s …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NewRecord returns a record stamped with the current environment.
func NewRecord(suite, gitSHA, timestamp string) *Record {
	return &Record{
		Schema:    SchemaVersion,
		Suite:     suite,
		GitSHA:    gitSHA,
		Timestamp: timestamp,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPU:       cpuModel(),
		NumCPU:    runtime.NumCPU(),
	}
}

// cpuModel best-effort reads the CPU model name for record context.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Sort orders the results by name for deterministic serialization.
func (r *Record) Sort() {
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Name < r.Results[j].Name })
}

// WriteFile serializes the record as indented JSON.
func (r *Record) WriteFile(path string) error {
	r.Sort()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadRecord loads and validates a record file.
func ReadRecord(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this binary reads %d", path, r.Schema, SchemaVersion)
	}
	if r.Suite == "" {
		return nil, fmt.Errorf("%s: record has no suite name", path)
	}
	return &r, nil
}

// GoBenchLine renders a result as a go test -bench output line, so the
// observatory's runs stay greppable by the standard tooling:
//
//	BenchmarkOrderSearch/…/pruned  1220  1132157 ns/op  744200 B/op  11979 allocs/op
func (res *Result) GoBenchLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Benchmark%s\t%8d\t%12.0f ns/op", res.Name, res.N, res.NsPerOp)
	fmt.Fprintf(&b, "\t%8.0f B/op\t%8.0f allocs/op", res.BytesPerOp, res.AllocsPerOp)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\t%12.4g %s", res.Metrics[k], k)
	}
	return b.String()
}
