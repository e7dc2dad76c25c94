// Runners for the application experiments (Figures 8 and 9).

package figures

import (
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/splatt"
)

// RunFigure8 measures the Splatt CPD duration for every configured order.
func RunFigure8(cfg Figure8Config) ([]Figure8Result, error) {
	out := make([]Figure8Result, 0, len(cfg.Orders))
	for _, sigma := range cfg.Orders {
		res, err := splatt.Run(splatt.Config{
			Spec:      cluster.Hydra(cfg.Nodes, cfg.NICs),
			Hierarchy: cluster.HydraHierarchy(cfg.Nodes),
			Order:     sigma,
			Grid:      cfg.Grid,
			Tensor:    cfg.Tensor,
			Rank:      16,
			Iters:     cfg.Iters,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Result{
			Order:      append([]int(nil), sigma...),
			Duration:   res.Duration,
			Alltoall16: res.Alltoall[16],
		})
	}
	return out, nil
}

// RunFigure9 measures the CG duration for every distinct core selection of
// every process count; mcfg is the MPI runtime configuration of every run,
// so callers can attach an observability scope.
func RunFigure9(procs []int, prob cg.Problem, mcfg mpi.Config) (map[int][]Figure9Selection, error) {
	spec := cluster.LUMINode()
	out := map[int][]Figure9Selection{}
	for _, p := range procs {
		sels, err := DistinctSelections(p)
		if err != nil {
			return nil, err
		}
		for i := range sels {
			res, err := cg.Run(spec, sels[i].Cores, prob, mcfg)
			if err != nil {
				return nil, err
			}
			sels[i].Duration = res.Duration
		}
		out[p] = sels
	}
	return out, nil
}
