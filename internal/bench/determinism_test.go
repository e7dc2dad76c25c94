package bench_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/mpi"
	"repro/internal/slurm"
	"repro/internal/splatt"
	"repro/internal/tensor"
)

// The simulator runs one rank at a time in a fixed order, so a simulated
// result is a pure function of its inputs: the same run repeated in one
// process, and repeated on a single OS thread, returns ==-equal virtual
// durations — including the 16 MB rows and the CPD, which used to move in
// their third and fourth digits from run to run.
func TestSimulatedResultsAreBitReproducible(t *testing.T) {
	sizes := []int64{1 << 20, 16 << 20}
	f3, f4 := figures.Figure3(sizes).Config, figures.Figure4(sizes).Config
	cores, err := slurm.MapCPU(cluster.LUMINodeHierarchy(), []int{3, 2, 1, 0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	tns := tensor.SyntheticNell([3]int{20_000, 500, 500}, 40_000, 1001)
	runs := []struct {
		name string
		run  func() ([]float64, error)
	}{
		{"figure4/1MB/simultaneous", func() ([]float64, error) {
			pt, err := bench.Measure(f4, f4.Orders[0], 1<<20, true)
			return []float64{pt.Bandwidth, pt.P10, pt.P90}, err
		}},
		{"figure3/16MB/simultaneous", func() ([]float64, error) {
			pt, err := bench.Measure(f3, f3.Orders[0], 16<<20, true)
			return []float64{pt.Bandwidth, pt.P10, pt.P90}, err
		}},
		{"cg/classS/p8", func() ([]float64, error) {
			res, err := cg.Run(cluster.LUMINode(), cores, cg.ClassS(), mpi.Config{})
			return []float64{res.Duration, res.Zeta}, err
		}},
		{"cpd/hydra8", func() ([]float64, error) {
			res, err := splatt.Run(splatt.Config{
				Spec: cluster.Hydra(8, 1), Hierarchy: cluster.HydraHierarchy(8), Order: []int{1, 3, 0, 2},
				Grid: tensor.Grid{16, 4, 4}, Tensor: tns, Rank: 16, Iters: 1,
			})
			return []float64{res.Duration}, err
		}},
	}
	for _, rc := range runs {
		first, err := rc.run()
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		again, err := rc.run()
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		prev := runtime.GOMAXPROCS(1)
		single, err := rc.run()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		for i := range first {
			if first[i] != again[i] || first[i] != single[i] {
				t.Errorf("%s: value %d is %v, then %v, then %v under GOMAXPROCS(1)",
					rc.name, i, first[i], again[i], single[i])
			}
		}
	}
}
