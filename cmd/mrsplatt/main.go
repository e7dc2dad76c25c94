// Command mrsplatt regenerates Figure 8: the Splatt CPD duration on the
// simulated Hydra cluster under every rank-reordering order, with one or
// two NICs per node, with each order's Alltoallv time in the 16-rank layer
// communicators and the CPD↔Alltoallv correlation of §4.2.
//
// Usage:
//
//	mrsplatt                 # both NIC configurations, all 24 orders
//	mrsplatt -nics 1         # Figure 8a only
//	mrsplatt -nodes 8        # scaled-down cluster (grid shrinks to match)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/tensor"
)

func main() {
	nodes := flag.Int("nodes", 32, "Hydra nodes (32 ranks each)")
	nics := flag.Int("nics", 0, "NICs per node (1 or 2; 0 runs both)")
	iters := flag.Int("iters", 2, "CPD ALS iterations")
	nnz := flag.Int("nnz", 4_000_000, "synthetic tensor nonzeros")
	flag.Parse()

	ranks := *nodes * 32
	if ranks%16 != 0 || ranks < 64 {
		fmt.Fprintln(os.Stderr, "mrsplatt: need at least 2 nodes")
		os.Exit(2)
	}
	grid := tensor.Grid{ranks / 16, 4, 4}
	ten := tensor.SyntheticNell([3]int{1600 * ranks, 8 * ranks, 8 * ranks}, *nnz, 1001)

	nicList := []int{1, 2}
	if *nics != 0 {
		nicList = []int{*nics}
	}
	for _, nic := range nicList {
		cfg := figures.Figure8Config{
			Nodes:  *nodes,
			NICs:   nic,
			Orders: perm.All(4),
			Tensor: ten,
			Grid:   grid,
			Iters:  *iters,
		}
		results, err := figures.RunFigure8(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrsplatt:", err)
			os.Exit(1)
		}
		fmt.Println(figures.RenderFigure8(cfg, results))
		var durations, a16 []float64
		for _, r := range results {
			durations = append(durations, r.Duration)
			a16 = append(a16, r.Alltoall16)
		}
		fmt.Printf("Pearson correlation CPD duration vs Alltoallv@16: %.2f\n\n",
			metrics.Pearson(durations, a16))
	}
}
