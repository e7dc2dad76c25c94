package perf

import "testing"

func record(suite string, results ...Result) *Record {
	r := NewRecord(suite, "deadbeef", "2026-01-01T00:00:00Z")
	r.Reps = 5
	r.BenchTime = "200ms"
	r.Results = results
	r.Sort()
	return r
}

func result(name string, samples ...float64) Result {
	return Result{Name: name, Samples: samples, NsPerOp: median(samples), N: 100}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		{[]float64{4, 1, 2, 3}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestMannWhitneySeparated(t *testing.T) {
	// Two clearly separated samples must be significant.
	xs := []float64{100, 101, 102, 99, 100}
	ys := []float64{150, 151, 149, 152, 150}
	if p := mannWhitney(xs, ys); p >= 0.05 {
		t.Fatalf("separated samples p = %v, want < 0.05", p)
	}
}

func TestMannWhitneyIdentical(t *testing.T) {
	xs := []float64{100, 100, 100, 100}
	if p := mannWhitney(xs, xs); p != 1 {
		t.Fatalf("identical samples p = %v, want 1", p)
	}
}

func TestMannWhitneyOverlapping(t *testing.T) {
	// Heavily overlapping noise must not be significant.
	xs := []float64{100, 110, 95, 105, 98}
	ys := []float64{101, 109, 96, 104, 99}
	if p := mannWhitney(xs, ys); p < 0.05 {
		t.Fatalf("overlapping samples p = %v, want >= 0.05", p)
	}
}

func TestMannWhitneySmallSamples(t *testing.T) {
	if p := mannWhitney([]float64{1, 2}, []float64{5, 6}); p != 1 {
		t.Fatalf("n<3 should return p=1, got %v", p)
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	old := record("kernels", result("K/a", 100, 101, 99, 100, 102))
	// 50% slower, clean separation → regression at a 20% threshold.
	new_ := record("kernels", result("K/a", 150, 151, 149, 152, 150))
	d, err := Diff(old, new_, DiffOptions{Threshold: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	regs := d.Regressions()
	if len(regs) != 1 || regs[0].Name != "K/a" {
		t.Fatalf("regressions = %+v, want K/a", regs)
	}
	if regs[0].Delta < 0.4 || regs[0].Delta > 0.6 {
		t.Fatalf("delta = %v, want ≈ 0.5", regs[0].Delta)
	}
}

func TestDiffUnchangedPasses(t *testing.T) {
	old := record("kernels", result("K/a", 100, 101, 99, 100, 102))
	new_ := record("kernels", result("K/a", 101, 100, 102, 99, 100))
	d, err := Diff(old, new_, DiffOptions{Threshold: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if regs := d.Regressions(); len(regs) != 0 {
		t.Fatalf("unchanged run regressed: %+v", regs)
	}
}

func TestDiffNoisyShiftBelowThresholdPasses(t *testing.T) {
	// Significant but small (5%) shift must not trip a 20% gate.
	old := record("s", result("K/a", 100, 100, 100, 100, 100))
	new_ := record("s", result("K/a", 105, 105, 105, 105, 105))
	d, err := Diff(old, new_, DiffOptions{Threshold: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if regs := d.Regressions(); len(regs) != 0 {
		t.Fatalf("5%% shift tripped a 20%% gate: %+v", regs)
	}
}

func TestDiffLargeButInsignificantPasses(t *testing.T) {
	// A big median move on wildly overlapping samples is noise, not a
	// regression.
	old := record("s", result("K/a", 50, 300, 100, 80, 200))
	new_ := record("s", result("K/a", 60, 310, 220, 90, 210))
	d, err := Diff(old, new_, DiffOptions{Threshold: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if regs := d.Regressions(); len(regs) != 0 {
		t.Fatalf("insignificant shift regressed: %+v", regs)
	}
}

func TestDiffTracksMissingBenchmarks(t *testing.T) {
	old := record("s", result("K/gone", 1, 2, 3), result("K/kept", 1, 2, 3))
	new_ := record("s", result("K/kept", 1, 2, 3), result("K/new", 1, 2, 3))
	d, err := Diff(old, new_, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "K/gone" {
		t.Fatalf("OnlyOld = %v", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "K/new" {
		t.Fatalf("OnlyNew = %v", d.OnlyNew)
	}
}

func TestDiffRejectsSuiteMismatch(t *testing.T) {
	if _, err := Diff(record("a"), record("b"), DiffOptions{}); err == nil {
		t.Fatal("expected suite-mismatch error")
	}
}

func TestDiffRejectsCPUCountMismatch(t *testing.T) {
	old, new_ := record("a"), record("a")
	new_.NumCPU = old.NumCPU + 1
	if _, err := Diff(old, new_, DiffOptions{}); err == nil {
		t.Fatal("expected num_cpu-mismatch error")
	}
}
