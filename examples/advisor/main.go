// Advisor: ask the analytic model which rank order to use for a workload
// (here: Figure 3's Alltoall in 32 simultaneous 16-rank communicators on
// Hydra), then verify the top and bottom recommendations against the
// discrete-event simulator.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/advisor"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/perm"
)

func main() {
	sc := advisor.Scenario{
		Spec:         cluster.Hydra(16, 1),
		Hierarchy:    cluster.HydraHierarchy(16),
		Coll:         advisor.Alltoall,
		CommSize:     16,
		Simultaneous: true,
		Bytes:        16 << 20,
	}
	res, err := advisor.SearchOrders(context.Background(), sc, advisor.SearchOptions{Top: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analytic ranking of all %d orders (top 3 and bottom 1):\n", res.Covered)
	for i, pr := range res.Best {
		fmt.Printf("  %d. %s\n", i+1, advisor.Explain(sc, pr))
	}
	fmt.Printf("  ⋮\n  %d. %s\n\n", res.Covered, advisor.Explain(sc, res.Worst))

	// Verify against the simulator.
	cfg := bench.Config{
		Spec:      sc.Spec,
		Hierarchy: sc.Hierarchy,
		CommSize:  sc.CommSize,
		Coll:      bench.Alltoall,
		Iters:     1,
	}
	for _, pr := range []advisor.Prediction{res.Best[0], res.Worst} {
		pt, err := bench.Measure(cfg, pr.Order, sc.Bytes, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("order %s: predicted %6.0f MB/s, simulated %6.0f MB/s\n",
			perm.Format(pr.Order), pr.Bandwidth/1e6, pt.Bandwidth/1e6)
	}
	fmt.Println("\nThe model is first-order — use it to pick candidates, the")
	fmt.Println("simulator (or the real machine) to confirm.")
}
