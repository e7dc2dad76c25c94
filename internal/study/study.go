// Package study pursues the paper's first future-work direction (§5):
// "we would like to better understand which application properties and
// cluster characteristics impact the performance obtained with different
// orders. This knowledge could help to predict which order is the most
// suitable." It measures every order of a machine on the simulator and
// correlates the §3.3 characterization metrics (spread score, ring cost)
// with the achieved bandwidth, separately for the one-communicator and
// all-communicators scenarios — quantifying the paper's qualitative
// observations (spread helps alone, hurts under contention; ring cost
// matters for neighbour-structured collectives).
package study

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/perm"
)

// Row is one order's metrics and measurements.
type Row struct {
	Order       []int
	RingCost    int
	SpreadScore float64
	OneComm     float64 // bandwidth, B/s
	AllComms    float64
}

// Result is a full study: all orders of the machine at one size.
type Result struct {
	Config bench.Config
	Size   int64
	Rows   []Row

	// Correlations of bandwidth with the metrics (Pearson, over orders).
	SpreadVsOne float64 // spread score ↔ one-comm bandwidth
	SpreadVsAll float64 // spread score ↔ all-comms bandwidth
	RingVsOne   float64
	RingVsAll   float64
}

// Run measures every order of the hierarchy (k! runs × 2 scenarios).
func Run(cfg bench.Config, size int64) (*Result, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	cfg.Orders = perm.All(cfg.Hierarchy.Depth())
	cfg.Sizes = []int64{size}
	series, err := bench.Run(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Size: size}
	for _, s := range series {
		res.Rows = append(res.Rows, Row{
			Order:       s.Order,
			RingCost:    s.Char.RingCost,
			SpreadScore: s.Char.SpreadScore(),
			OneComm:     s.OneComm[0].Bandwidth,
			AllComms:    s.AllComms[0].Bandwidth,
		})
	}
	spread := make([]float64, len(res.Rows))
	ring := make([]float64, len(res.Rows))
	one := make([]float64, len(res.Rows))
	all := make([]float64, len(res.Rows))
	for i, r := range res.Rows {
		spread[i] = r.SpreadScore
		ring[i] = float64(r.RingCost)
		one[i] = r.OneComm
		all[i] = r.AllComms
	}
	res.SpreadVsOne = metrics.Pearson(spread, one)
	res.SpreadVsAll = metrics.Pearson(spread, all)
	res.RingVsOne = metrics.Pearson(ring, one)
	res.RingVsAll = metrics.Pearson(ring, all)
	return res, nil
}

// Render prints the study as a sorted table plus the correlation summary.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "order study — %s, %s, %d ranks/comm, %d bytes\n",
		r.Config.Hierarchy, r.Config.Coll, r.Config.CommSize, r.Size)
	fmt.Fprintf(&b, "%-12s %10s %8s %14s %14s\n",
		"order", "ringcost", "spread", "1comm MB/s", "all MB/s")
	rows := append([]Row(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].AllComms > rows[j].AllComms })
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %10d %8.2f %14.0f %14.0f\n",
			perm.Format(row.Order), row.RingCost, row.SpreadScore,
			row.OneComm/1e6, row.AllComms/1e6)
	}
	fmt.Fprintf(&b, "correlations (Pearson over %d orders):\n", len(r.Rows))
	fmt.Fprintf(&b, "  spread score vs 1-comm bandwidth:   %+0.2f\n", r.SpreadVsOne)
	fmt.Fprintf(&b, "  spread score vs all-comm bandwidth: %+0.2f\n", r.SpreadVsAll)
	fmt.Fprintf(&b, "  ring cost    vs 1-comm bandwidth:   %+0.2f\n", r.RingVsOne)
	fmt.Fprintf(&b, "  ring cost    vs all-comm bandwidth: %+0.2f\n", r.RingVsAll)
	return b.String()
}
