package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestRoundUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 5}, {5, 5}, {6, 10},
		{11, 20}, {21, 30}, {31, 50}, {51, 100}, {150, 200},
	} {
		if got := roundUp(tc.in); got != tc.want {
			t.Errorf("roundUp(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMeasureScalesIterations(t *testing.T) {
	calls := 0
	s, err := measure(func(b *B) {
		for i := 0; i < b.N; i++ {
			calls++
			time.Sleep(10 * time.Microsecond)
		}
	}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.n < 2 {
		t.Fatalf("expected the harness to ramp past 1 iteration, got n=%d", s.n)
	}
	if s.nsPerOp <= 0 {
		t.Fatalf("nsPerOp = %v", s.nsPerOp)
	}
}

func TestRunBenchSmoke(t *testing.T) {
	ran := 0
	res, err := runBench(Bench{Name: "X", F: func(b *B) {
		for i := 0; i < b.N; i++ {
			ran++
		}
	}}, RunOptions{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("smoke ran %d iterations, want exactly 1", ran)
	}
	if res.N != 1 || len(res.Samples) != 1 {
		t.Fatalf("smoke result %+v", res)
	}
}

func TestRunBenchCollectsReps(t *testing.T) {
	res, err := runBench(Bench{Name: "X", F: func(b *B) {
		for i := 0; i < b.N; i++ {
			time.Sleep(time.Microsecond)
		}
		b.ReportMetric(42, "things/s")
	}}, RunOptions{Reps: 3, BenchTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 3 {
		t.Fatalf("samples = %v, want 3", res.Samples)
	}
	if res.Metrics["things/s"] != 42 {
		t.Fatalf("metrics = %v", res.Metrics)
	}
	if res.NsPerOp != median(res.Samples) {
		t.Fatalf("NsPerOp %v != median(%v)", res.NsPerOp, res.Samples)
	}
}

func TestRunBenchFatalPropagates(t *testing.T) {
	_, err := runBench(Bench{Name: "X", F: func(b *B) {
		b.Fatalf("boom %d", 7)
	}}, RunOptions{Smoke: true})
	if err == nil || !strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("err = %v, want boom 7", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	rec := NewRecord("test", "abc123", "2026-08-08T00:00:00Z")
	rec.Reps, rec.BenchTime = 3, "1ms"
	rec.Results = []Result{
		{Name: "B/b", NsPerOp: 2, Samples: []float64{1, 2, 3}, Metrics: map[string]float64{"req/s": 10}},
		{Name: "A/a", NsPerOp: 1, Samples: []float64{1}},
	}
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "test" || got.GitSHA != "abc123" || got.Timestamp != "2026-08-08T00:00:00Z" {
		t.Fatalf("metadata round trip: %+v", got)
	}
	// WriteFile sorts.
	if got.Results[0].Name != "A/a" || got.Results[1].Name != "B/b" {
		t.Fatalf("results not sorted: %+v", got.Results)
	}
	if got.Results[1].Metrics["req/s"] != 10 {
		t.Fatalf("metrics lost: %+v", got.Results[1])
	}
}

func TestReadRecordRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := writeFile(path, `{"schema": 999, "suite": "x"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecord(path); err == nil {
		t.Fatal("expected schema version error")
	}
}

func TestSuitesRegisteredAndSmokeable(t *testing.T) {
	suites := Suites()
	if len(suites) < 4 {
		t.Fatalf("registered %d suites, want >= 4", len(suites))
	}
	seen := map[string]bool{}
	for _, s := range suites {
		if seen[s.Name] {
			t.Fatalf("duplicate suite %q", s.Name)
		}
		seen[s.Name] = true
		if s.Threshold <= 0 {
			t.Fatalf("suite %s has no threshold", s.Name)
		}
		if len(s.Benches) == 0 {
			t.Fatalf("suite %s has no benchmarks", s.Name)
		}
	}
	for _, name := range []string{"kernels", "order_search", "mixedradix", "serving"} {
		if !seen[name] {
			t.Fatalf("suite %s not registered (have %v)", name, seen)
		}
	}
	// The smoke path is what make check runs: every benchmark must
	// execute for one iteration without failing.
	for _, s := range suites {
		if s.Name == "serving" && testing.Short() {
			continue
		}
		rec, err := RunSuite(s, "", "", RunOptions{Smoke: true})
		if err != nil {
			t.Fatalf("smoke %s: %v", s.Name, err)
		}
		if len(rec.Results) != len(s.Benches) {
			t.Fatalf("smoke %s: %d results for %d benches", s.Name, len(rec.Results), len(s.Benches))
		}
	}
}

// TestRunSuiteWritesProfiles runs a one-benchmark suite with a profile
// directory: the final rep leaves a CPU and a heap profile, each gzipped
// profile.proto as `go tool pprof` reads it.
func TestRunSuiteWritesProfiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	s := Suite{Name: "p", Threshold: 0.2, Benches: []Bench{{Name: "Sum/n=64", F: func(b *B) {
		xs := make([]float64, 64)
		for i := 0; i < b.N; i++ {
			for j := range xs {
				xs[j] += float64(j)
			}
		}
	}}}}
	if _, err := RunSuite(s, "", "", RunOptions{Reps: 2, BenchTime: time.Millisecond, Profile: dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Sum_n=64.cpu.pprof", "Sum_n=64.heap.pprof"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s is not gzipped (% x…)", name, b[:min(len(b), 4)])
		}
	}
}
