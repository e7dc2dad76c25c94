// Splatt reordering: run the simulated distributed CPD on a small Hydra
// cluster under the Slurm default order and under a packed order, report
// the improvement, the time each run spends in the Alltoallv of its
// 16-rank layer communicators (§4.2's attribution), and the observability
// summary of the default order's run.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/splatt"
	"repro/internal/tensor"
)

func main() {
	const nodes = 8 // 256 ranks
	ten := tensor.SyntheticNell([3]int{400000, 2000, 2000}, 1_000_000, 17)
	fmt.Printf("synthetic tensor: %v, %d nonzeros (nell-1 stand-in)\n\n", ten.Dims, ten.NNZ())

	run := func(name string) float64 {
		sigma, err := perm.Parse(name)
		if err != nil {
			log.Fatal(err)
		}
		var sc *obs.Scope
		if name == "1-3-2-0" {
			sc = obs.New(obs.Options{})
		}
		res, err := splatt.Run(splatt.Config{
			Spec:      cluster.Hydra(nodes, 1),
			Hierarchy: cluster.HydraHierarchy(nodes),
			Order:     sigma,
			Grid:      tensor.Grid{16, 4, 4},
			Tensor:    ten,
			Rank:      16,
			Iters:     2,
			MPI:       mpi.Config{Obs: sc},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("order %s: CPD %.3f ms (Alltoallv in 16-rank comms: %.3f ms)\n",
			name, res.Duration*1e3, res.Alltoall[16]*1e3)
		if sc != nil {
			fmt.Println("\nprofile of the Slurm default order:")
			fmt.Print(obs.Summary(sc, 8))
			fmt.Println()
		}
		return res.Duration
	}

	def := run("1-3-2-0") // Slurm default on Hydra (block:cyclic)
	best := run("3-2-1-0")
	fmt.Printf("\nthe packed order improves the Slurm default by %.0f%%\n", 100*(def-best)/def)
}
