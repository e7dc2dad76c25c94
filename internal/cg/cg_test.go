package cg

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/slurm"
)

func TestGenerateSPD(t *testing.T) {
	prob := ClassS()
	m := prob.Generate()
	if m.N != prob.N {
		t.Fatalf("N = %d", m.N)
	}
	// Symmetry: every (i,j,v) must have (j,i,v).
	entries := map[[2]int32]float64{}
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			entries[[2]int32{int32(i), m.ColIdx[k]}] = m.Values[k]
		}
	}
	for key, v := range entries {
		if w, ok := entries[[2]int32{key[1], key[0]}]; !ok || math.Abs(v-w) > 1e-12 {
			t.Fatalf("asymmetric entry (%d,%d): %v vs %v", key[0], key[1], v, w)
		}
	}
	// Diagonal dominance.
	for i := 0; i < m.N; i++ {
		var diag, off float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.ColIdx[k]) == i {
				diag = m.Values[k]
			} else {
				off += math.Abs(m.Values[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: %v vs %v", i, diag, off)
		}
	}
}

// Sequential runs the benchmark without MPI (the verification reference).
func Sequential(prob Problem) Result {
	m := prob.Generate()
	n := m.N
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	var zeta, res float64
	z := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	for outer := 0; outer < prob.OuterIters; outer++ {
		res = cgSolve(m, 0, n, x, z, r, p, q, prob.InnerIters, nil, nil)
		// ζ = λ + 1/(xᵀz); then x = z/‖z‖.
		var xz, zz float64
		for i := 0; i < n; i++ {
			xz += x[i] * z[i]
			zz += z[i] * z[i]
		}
		zeta = prob.Lambda + 1/xz
		norm := math.Sqrt(zz)
		for i := 0; i < n; i++ {
			x[i] = z[i] / norm
		}
	}
	return Result{Zeta: zeta, Residual: res}
}

func TestSequentialConverges(t *testing.T) {
	res := Sequential(ClassS())
	if res.Residual > 1e-6 {
		t.Errorf("residual = %v", res.Residual)
	}
	if res.Zeta <= ClassS().Lambda {
		t.Errorf("zeta = %v", res.Zeta)
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	prob := Problem{N: 1024, NNZPerRow: 6, OuterIters: 2, InnerIters: 12, Lambda: 12, Seed: 77}
	want := Sequential(prob)
	spec := cluster.LUMINode()
	for _, p := range []int{1, 2, 4, 8} {
		binding := make([]int, p)
		for i := range binding {
			binding[i] = i
		}
		got, err := Run(spec, binding, prob, mpi.Config{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if math.Abs(got.Zeta-want.Zeta) > 1e-9 {
			t.Errorf("p=%d: zeta %v, want %v", p, got.Zeta, want.Zeta)
		}
		if math.Abs(got.Residual-want.Residual) > 1e-9*(1+want.Residual) {
			t.Errorf("p=%d: residual %v, want %v", p, got.Residual, want.Residual)
		}
		if got.Duration <= 0 {
			t.Errorf("p=%d: duration %v", p, got.Duration)
		}
	}
}

func TestRowsMustDivide(t *testing.T) {
	prob := Problem{N: 10, NNZPerRow: 2, OuterIters: 1, InnerIters: 2, Lambda: 5, Seed: 1}
	if _, err := Run(cluster.LUMINode(), []int{0, 1, 2}, prob, mpi.Config{}); err == nil {
		t.Error("non-dividing rank count accepted")
	}
	if _, err := Run(cluster.LUMINode(), nil, prob, mpi.Config{}); err == nil {
		t.Error("empty binding accepted")
	}
}

// Figure 9's mechanism: with 8 ranks on one LUMI node, selecting one core
// per L3 cache of the first socket (order [2,1,0,3]) must beat the Slurm
// default block selection (cores 0-7 inside a single L3).
func TestCoreSelectionAffectsDuration(t *testing.T) {
	prob := Problem{N: 8192, NNZPerRow: 8, OuterIters: 1, InnerIters: 15, Lambda: 15, Seed: 5}
	node := cluster.LUMINodeHierarchy()
	spec := cluster.LUMINode()

	packed := []int{0, 1, 2, 3, 4, 5, 6, 7} // Slurm default: one L3
	perL3, err := slurm.MapCPU(node, []int{2, 1, 0, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	resPacked, err := Run(spec, packed, prob, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resSpread, err := Run(spec, perL3, prob, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resPacked.Zeta-resSpread.Zeta) > 1e-9 {
		t.Errorf("zeta depends on mapping: %v vs %v", resPacked.Zeta, resSpread.Zeta)
	}
	if resSpread.Duration >= resPacked.Duration {
		t.Errorf("one-per-L3 (%v) should beat packed default (%v)",
			resSpread.Duration, resPacked.Duration)
	}
}

// Strong scaling: more processes help up to a point, then flatten — and a
// good 8-core selection beats a bad 32-core one (§4.3's headline).
func TestStrongScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep")
	}
	prob := Problem{N: 16384, NNZPerRow: 8, OuterIters: 1, InnerIters: 15, Lambda: 15, Seed: 5}
	node := cluster.LUMINodeHierarchy()
	spec := cluster.LUMINode()
	duration := func(binding []int) float64 {
		res, err := Run(spec, binding, prob, mpi.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	best8, err := slurm.MapCPU(node, []int{2, 1, 0, 3}, 8) // one per L3, socket 0 first
	if err != nil {
		t.Fatal(err)
	}
	packed2 := []int{0, 1}
	packed32 := make([]int, 32)
	for i := range packed32 {
		packed32[i] = i
	}
	d2 := duration(packed2)
	d8 := duration(best8)
	d32 := duration(packed32)
	if d8 >= d2 {
		t.Errorf("8 well-placed ranks (%v) should beat 2 packed ranks (%v)", d8, d2)
	}
	// §4.3: "CG can achieve better performance using only one fourth of
	// the cores with a better mapping": a good 8-core selection is
	// competitive with the packed 32-core default.
	if d8 > d32*1.5 {
		t.Errorf("good 8-core selection (%v) should be within 1.5× of packed 32 cores (%v)", d8, d32)
	}
}
