// The procmap suite: communication-matrix-aware placement on the
// workloads it exists for — halo exchanges and skewed layer collectives —
// split into the greedy construction (the cheap path mapd's fallback leans
// on), the greedy+KL refinement, and the refinement from the best σ
// order's placement, which is how the matrix endpoint serves. Each op
// times what /v1/map/matrix runs on a decoded request: procmap.NewGraph
// over the sparse edge list, then Map or BestOrder; the dense matrix's
// n² scan into that list is setup.

package perf

import (
	"context"
	"fmt"

	"repro/internal/commmatrix"
	"repro/internal/procmap"
	"repro/internal/topology"
)

// procmapCase is one workload × hierarchy point of the procmap grid.
type procmapCase struct {
	workload string
	shape    []int
	gen      func() (*commmatrix.Matrix, error)
}

func procmapCases() []procmapCase {
	return []procmapCase{
		{
			// Depth-3, 32 ranks: the shallow end mapd serves interactively.
			workload: "halo-4x8",
			shape:    []int{2, 4, 4},
			gen:      func() (*commmatrix.Matrix, error) { return procmap.Halo(4, 8, 1024) },
		},
		{
			// Depth-4, 128 ranks on a Hydra-like hierarchy: the halo grid no
			// digit order can pack (16 columns straddle the 8-core level).
			workload: "halo-8x16",
			shape:    []int{4, 2, 2, 8},
			gen:      func() (*commmatrix.Matrix, error) { return procmap.Halo(8, 16, 1024) },
		},
		{
			// Depth-5, 512 ranks: serve_cold's slowest matrix request.
			workload: "halo-16x32",
			shape:    []int{4, 2, 4, 2, 8},
			gen:      func() (*commmatrix.Matrix, error) { return procmap.Halo(16, 32, 1024) },
		},
		{
			// Depth-4, 64 ranks, splatt-style hub skew on the middle mode —
			// the dense-matrix end: every layer pair communicates.
			workload: "layers-4x4x4",
			shape:    []int{2, 2, 2, 8},
			gen: func() (*commmatrix.Matrix, error) {
				return procmap.GridLayers([3]int{4, 4, 4}, [3]float64{10, 1000, 10})
			},
		},
	}
}

// ProcmapSuite benchmarks the matrix-aware placement search: the σ-order
// baseline, the greedy construction, and refinement from either start.
func ProcmapSuite() Suite {
	s := Suite{
		Name:        "procmap",
		Description: "matrix-aware placement: greedy construction vs. greedy+KL refinement",
		Threshold:   0.25,
	}
	for _, pc := range procmapCases() {
		h := topology.MustNew(pc.shape...)
		m, err := pc.gen()
		if err != nil {
			panic(fmt.Sprintf("perf: procmap workload %s: %v", pc.workload, err))
		}
		sparse := m.Sparse()
		base := fmt.Sprintf("ProcmapMap/h=%s/%s", intsDash(pc.shape), pc.workload)
		for _, mode := range []string{"greedy", "refine", "refine-order"} {
			opts := procmap.Options{Seed: 1, NoRefine: mode == "greedy", NoOrderInit: true}
			if mode == "refine-order" { // BestOrder fails only where Map does
				_, opts.InitPlacement, _, _, _ = procmap.NewGraph(sparse).BestOrder(h, nil)
			}
			s.Benches = append(s.Benches, Bench{
				Name: base + "/" + mode,
				F: func(b *B) {
					ctx := context.Background()
					for i := 0; i < b.N; i++ {
						res, err := procmap.NewGraph(sparse).Map(ctx, h, opts)
						if err != nil {
							b.Fatalf("%v", err)
						}
						if res.Cost <= 0 {
							b.Fatalf("degenerate cost %g", res.Cost)
						}
					}
				},
			})
		}
		s.Benches = append(s.Benches, Bench{
			Name: fmt.Sprintf("ProcmapBestOrder/h=%s/%s", intsDash(pc.shape), pc.workload),
			F: func(b *B) {
				for i := 0; i < b.N; i++ {
					if _, _, _, _, err := procmap.NewGraph(sparse).BestOrder(h, nil); err != nil {
						b.Fatalf("%v", err)
					}
				}
			},
		})
	}
	return s
}
