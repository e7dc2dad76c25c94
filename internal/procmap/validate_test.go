// Simulator validation: the matrix-aware mapping must strictly beat the
// best mixed-radix order on traffic the digit orders cannot express (halo
// exchange, splatt hub modes) and tie — within 1% — on the uniform block
// collectives the orders pack optimally. Matrices come from real
// simulator runs, summed from their obs scopes' p2p instants, not from the synthetic
// generators, so the whole introspect → map loop is exercised.

package procmap

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commmatrix"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/splatt"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// p2pMatrix accumulates sc's p2p instants into a matrix of n ranks,
// skipping self-messages and empty ones.
func p2pMatrix(t *testing.T, sc *obs.Scope, n int) *commmatrix.Matrix {
	t.Helper()
	if d := sc.DroppedSpans(); d > 0 {
		t.Fatalf("scope dropped %d events past its cap", d)
	}
	m := commmatrix.New(n)
	for _, in := range sc.Instants() {
		if in.Name != "p2p" {
			continue
		}
		var dst, bytes int64
		for _, a := range in.Args {
			switch a.Key {
			case "dst":
				dst = a.Val
			case "bytes":
				bytes = a.Val
			}
		}
		if int64(in.TID) != dst && bytes > 0 {
			m.Add(in.TID, int(dst), float64(bytes))
		}
	}
	return m
}

// haloSimMatrix runs the examples/halo workload — a periodic 4×32 cart
// grid on 4 Hydra nodes (128 cores) — and returns its traffic matrix.
func haloSimMatrix(t *testing.T) *commmatrix.Matrix {
	t.Helper()
	spec := cluster.Hydra(4, 1)
	n := spec.Hierarchy().Size()
	sc := obs.New(obs.Options{P2PEvents: true})
	binding := make([]int, n)
	for i := range binding {
		binding[i] = i
	}
	_, err := mpi.Run(spec, binding, mpi.Config{Obs: sc}, func(r *mpi.Rank) {
		w := r.World()
		cart, err := w.CartCreate(r, []int{4, 32}, []bool{true, true}, false)
		if err != nil {
			t.Error(err)
			return
		}
		for dim := 0; dim < 2; dim++ {
			cart.NeighborExchange(r, dim, mpi.BytesBuf(256<<10))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return p2pMatrix(t, sc, n)
}

func TestHaloMappingBeatsBestOrder(t *testing.T) {
	h := cluster.HydraHierarchy(4)
	m := haloSimMatrix(t)
	if m.Total() <= 0 {
		t.Fatal("scope saw no traffic")
	}
	res, err := Map(context.Background(), m, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, orderCost, _, err := BestOrder(m, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 4×32 torus does not factor into ⟦4,2,2,8⟧ digits: every σ leaves
	// one halo direction crossing domains, so the matrix-aware mapping
	// must win strictly.
	if res.Cost >= orderCost {
		t.Fatalf("halo: matrix-aware cost %g not better than best order %g", res.Cost, orderCost)
	}
	t.Logf("halo: greedy %.4g, refined %.4g (%d swaps), best order %.4g (%.1f%% better)",
		res.GreedyCost, res.Cost, res.Swaps, orderCost, 100*(orderCost-res.Cost)/orderCost)
}

// splattSimMatrix returns the traffic matrix of a scaled-down hub-mode CPD: 2
// Hydra nodes (64 cores), a 4×4×4 grid, and a nell-2-shaped tensor whose
// huge middle mode makes the mode-1 layer Alltoallv dominate the traffic
// (each rank's per-peer volume scales with its distinct mode-1 rows). The
// heavy mode sits on the grid's MIDDLE coordinate, which no consecutive
// σ-segmentation of ⟦2,2,2,8⟧ can pack innermost — the structural gap the
// matrix-aware mapper exploits.
func splattSimMatrix(t *testing.T, h topology.Hierarchy) *commmatrix.Matrix {
	t.Helper()
	sc := obs.New(obs.Options{P2PEvents: true})
	_, err := splatt.Run(splatt.Config{
		Spec:      cluster.Hydra(2, 1),
		Hierarchy: h,
		Order:     []int{3, 2, 1, 0},
		Grid:      tensor.Grid{4, 4, 4},
		Tensor:    tensor.SyntheticNell([3]int{400, 40000, 400}, 100_000, 17),
		Rank:      8,
		Iters:     1,
		MPI:       mpi.Config{Obs: sc},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p2pMatrix(t, sc, h.Size())
}

func TestSplattHubMappingBeatsBestOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated CPD run")
	}
	h := cluster.HydraHierarchy(2)
	m := splattSimMatrix(t, h)
	if m.Total() <= 0 {
		t.Fatal("scope saw no traffic")
	}
	res, err := Map(context.Background(), m, h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, orderCost, _, err := BestOrder(m, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= orderCost {
		t.Fatalf("splatt: matrix-aware cost %g not better than best order %g", res.Cost, orderCost)
	}
	t.Logf("splatt: greedy %.4g, refined %.4g (%d swaps), best order %.4g (%.1f%% better)",
		res.GreedyCost, res.Cost, res.Swaps, orderCost, 100*(orderCost-res.Cost)/orderCost)
}

func TestUniformCollectivesTieWithBestOrder(t *testing.T) {
	// Uniform block collectives are exactly what the mixed-radix orders
	// pack optimally; the matrix-aware mapping must not lose more than 1%.
	h := topology.MustNew(2, 4, 2, 8)
	for _, block := range []int{8, 16, 32} {
		m, err := GridLayers([3]int{h.Size() / block, block, 1}, [3]float64{4096, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Map(context.Background(), m, h, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, _, orderCost, _, err := BestOrder(m, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > 1.01*orderCost {
			t.Fatalf("block %d: matrix-aware cost %g loses to best order %g by more than 1%%",
				block, res.Cost, orderCost)
		}
		t.Logf("uniform block %d: matrix-aware %.4g vs best order %.4g", block, res.Cost, orderCost)
	}
}
