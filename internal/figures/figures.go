// Package figures defines one runnable configuration per table and figure
// of the paper's evaluation (§4), shared by the command-line tools and the
// benchmark harness in bench_test.go. Each figure function returns the
// exact setup of the paper — machines, communicator sizes, orders from the
// legends — and the Render helpers print the regenerated rows/series.
package figures

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/plot"
	"repro/internal/slurm"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// mustOrders parses legend order names.
func mustOrders(names ...string) [][]int {
	out := make([][]int, len(names))
	for i, n := range names {
		sigma, err := perm.Parse(n)
		if err != nil {
			panic(err)
		}
		out[i] = sigma
	}
	return out
}

// Table1 regenerates Table 1: rank 10 on ⟦2,2,4⟧ under all six orders.
func Table1() string {
	h := []int{2, 2, 4}
	c := mixedradix.Decompose(h, 10)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — rank 10 on ⟦2,2,4⟧ (coordinates %v)\n", c)
	fmt.Fprintf(&b, "%-10s %-22s %-20s %s\n", "order", "permuted coordinates", "permuted hierarchy", "new rank")
	for _, sigma := range perm.All(3) {
		pc := mixedradix.PermutedCoordinates(c, sigma)
		ph := mixedradix.PermutedHierarchy(h, sigma)
		nr := mixedradix.Compose(h, c, sigma)
		fmt.Fprintf(&b, "%-10s %-22s %-20s %d\n",
			perm.Format(sigma), fmt.Sprint(pc), fmt.Sprint(ph), nr)
	}
	return b.String()
}

// MicroBench is the configuration of one of Figures 3–7.
type MicroBench struct {
	Name     string
	Caption  string
	Config   bench.Config
	AllLabel string // e.g. "32 simultaneous comm."
}

// scaleNodes lets callers shrink the clusters for quick runs; 1 = paper
// scale (16 nodes).
func hydraBench(nodes int) (bench.Config, int) {
	return bench.Config{
		Spec:      cluster.Hydra(nodes, 1),
		Hierarchy: cluster.HydraHierarchy(nodes),
		Iters:     2,
	}, nodes * 32
}

func lumiBench(nodes int) (bench.Config, int) {
	return bench.Config{
		Spec:      cluster.LUMI(nodes),
		Hierarchy: cluster.LUMIHierarchy(nodes),
		Iters:     2,
	}, nodes * 128
}

// Figure3 — 16 Hydra nodes, 512 ranks, MPI_Alltoall, 16 ranks/comm.
func Figure3(sizes []int64) MicroBench {
	cfg, n := hydraBench(16)
	cfg.CommSize = 16
	cfg.Coll = bench.Alltoall
	cfg.Orders = mustOrders("0-1-2-3", "2-1-0-3", "1-3-0-2", "1-3-2-0", "3-1-0-2", "3-2-1-0")
	cfg.Sizes = sizes
	return MicroBench{
		Name:     "figure3",
		Caption:  fmt.Sprintf("Figure 3 — %d Hydra nodes, %d ranks, Alltoall, 16 ranks/comm", 16, n),
		Config:   cfg,
		AllLabel: fmt.Sprintf("%d simultaneous comm.", n/16),
	}
}

// Figure4 — Hydra, Alltoall, 128 ranks/comm.
func Figure4(sizes []int64) MicroBench {
	cfg, n := hydraBench(16)
	cfg.CommSize = 128
	cfg.Coll = bench.Alltoall
	cfg.Orders = mustOrders("0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "1-3-2-0", "3-2-1-0")
	cfg.Sizes = sizes
	return MicroBench{
		Name:     "figure4",
		Caption:  fmt.Sprintf("Figure 4 — 16 Hydra nodes, %d ranks, Alltoall, 128 ranks/comm", n),
		Config:   cfg,
		AllLabel: fmt.Sprintf("%d simultaneous comm.", n/128),
	}
}

// Figure5 — 16 LUMI nodes, 2048 ranks, Alltoall, 16 ranks/comm.
func Figure5(sizes []int64) MicroBench {
	cfg, n := lumiBench(16)
	cfg.CommSize = 16
	cfg.Coll = bench.Alltoall
	cfg.Orders = mustOrders("0-1-2-3-4", "1-2-3-0-4", "3-2-1-4-0", "3-4-0-1-2", "4-3-2-1-0")
	cfg.Sizes = sizes
	return MicroBench{
		Name:     "figure5",
		Caption:  fmt.Sprintf("Figure 5 — 16 LUMI nodes, %d ranks, Alltoall, 16 ranks/comm", n),
		Config:   cfg,
		AllLabel: fmt.Sprintf("%d simultaneous comm.", n/16),
	}
}

// Figure6 — Hydra, Allreduce, 64 ranks/comm.
func Figure6(sizes []int64) MicroBench {
	cfg, n := hydraBench(16)
	cfg.CommSize = 64
	cfg.Coll = bench.Allreduce
	cfg.Orders = mustOrders("0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "1-3-2-0", "3-2-1-0")
	cfg.Sizes = sizes
	return MicroBench{
		Name:     "figure6",
		Caption:  fmt.Sprintf("Figure 6 — 16 Hydra nodes, %d ranks, Allreduce, 64 ranks/comm", n),
		Config:   cfg,
		AllLabel: fmt.Sprintf("%d simultaneous comm.", n/64),
	}
}

// Figure7 — LUMI, Allgather, 256 ranks/comm.
func Figure7(sizes []int64) MicroBench {
	cfg, n := lumiBench(16)
	cfg.CommSize = 256
	cfg.Coll = bench.Allgather
	cfg.Orders = mustOrders("0-1-2-3-4", "1-2-3-0-4", "3-4-0-1-2", "3-2-1-4-0", "4-3-2-1-0")
	cfg.Sizes = sizes
	return MicroBench{
		Name:     "figure7",
		Caption:  fmt.Sprintf("Figure 7 — 16 LUMI nodes, %d ranks, Allgather, 256 ranks/comm", n),
		Config:   cfg,
		AllLabel: fmt.Sprintf("%d simultaneous comm.", n/256),
	}
}

// MicroBenches returns figures 3–7 keyed by number.
func MicroBenches(sizes []int64) map[int]MicroBench {
	return map[int]MicroBench{
		3: Figure3(sizes),
		4: Figure4(sizes),
		5: Figure5(sizes),
		6: Figure6(sizes),
		7: Figure7(sizes),
	}
}

// RenderSeries prints the two curve families of a micro-benchmark figure.
func RenderSeries(mb MicroBench, series []bench.Series) string {
	var b strings.Builder
	fmt.Fprintln(&b, mb.Caption)
	fmt.Fprintln(&b, "legend: order (ring cost - % of process pairs per level)")
	for _, s := range series {
		fmt.Fprintf(&b, "  %s\n", s.Char)
	}
	render := func(title string, pick func(bench.Series) []bench.Point) {
		fmt.Fprintf(&b, "%s — bandwidth (MB/s)\n", title)
		fmt.Fprintf(&b, "%-12s", "size")
		for _, s := range series {
			fmt.Fprintf(&b, "%12s", perm.Format(s.Order))
		}
		fmt.Fprintln(&b)
		for i := range pick(series[0]) {
			fmt.Fprintf(&b, "%-12s", sizeLabel(pick(series[0])[i].Size))
			for _, s := range series {
				fmt.Fprintf(&b, "%12s", bench.FormatMBps(pick(s)[i].Bandwidth))
			}
			fmt.Fprintln(&b)
		}
	}
	render("1 simultaneous comm.", func(s bench.Series) []bench.Point { return s.OneComm })
	render(mb.AllLabel, func(s bench.Series) []bench.Point { return s.AllComms })
	// Compact log-scale sketch of the two plot panes.
	xs := make([]string, len(series[0].OneComm))
	for i, pt := range series[0].OneComm {
		xs[i] = sizeLabel(pt.Size)
	}
	sketch := func(title string, pick func(bench.Series) []bench.Point) {
		rows := make([]plot.Series, len(series))
		for i, s := range series {
			pts := make([]float64, len(pick(s)))
			for j, pt := range pick(s) {
				pts[j] = pt.Bandwidth
			}
			rows[i] = plot.Series{Name: perm.Format(s.Order), Points: pts}
		}
		fmt.Fprintf(&b, "%s (sketch)\n%s", title, plot.Lines(xs, rows, "B/s"))
	}
	sketch("1 simultaneous comm.", func(s bench.Series) []bench.Point { return s.OneComm })
	sketch(mb.AllLabel, func(s bench.Series) []bench.Point { return s.AllComms })
	return b.String()
}

func sizeLabel(bytes int64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%d MB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%d KB", bytes>>10)
	}
	return fmt.Sprintf("%d B", bytes)
}

// Figure8Config parameterizes the Splatt experiment.
type Figure8Config struct {
	Nodes  int // paper: 32
	NICs   int // 1 (Figure 8a) or 2 (Figure 8b)
	Orders [][]int
	Tensor *tensor.Tensor
	Grid   tensor.Grid
	Iters  int
}

// Figure8Result is one order's bar.
type Figure8Result struct {
	Order      []int
	Duration   float64
	Alltoall16 float64 // time in Alltoall on the 16-rank layer comms
}

// RenderFigure8 prints the per-order durations, flagging the Slurm default.
func RenderFigure8(cfg Figure8Config, results []Figure8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — Splatt CPD on %d Hydra nodes (%d ranks), %d NIC(s) per node\n",
		cfg.Nodes, cfg.Grid.Size(), cfg.NICs)
	fmt.Fprintf(&b, "%-12s %-14s %-18s\n", "order", "duration (s)", "alltoallv@16 (s)")
	def := perm.Format(cluster.HydraSlurmDefaultOrder())
	best := results[0]
	for _, r := range results {
		if r.Duration < best.Duration {
			best = r
		}
	}
	for _, r := range results {
		mark := ""
		if perm.Format(r.Order) == def {
			mark = "  <- Slurm default mapping"
		}
		if perm.Format(r.Order) == perm.Format(best.Order) {
			mark += "  <- best"
		}
		fmt.Fprintf(&b, "%-12s %-14.4f %-18.4f%s\n", perm.Format(r.Order), r.Duration, r.Alltoall16, mark)
	}
	var defDur float64
	for _, r := range results {
		if perm.Format(r.Order) == def {
			defDur = r.Duration
		}
	}
	if defDur > 0 {
		fmt.Fprintf(&b, "best order %s improves the Slurm default by %.0f%%\n",
			perm.Format(best.Order), 100*(defDur-best.Duration)/defDur)
	}
	bars := make([]plot.Bar, len(results))
	for i, r := range results {
		note := ""
		if perm.Format(r.Order) == def {
			note = "  <- Slurm default"
		}
		bars[i] = plot.Bar{Label: perm.Format(r.Order), Value: r.Duration, Note: note}
	}
	b.WriteString(plot.Bars(bars, "s", 40))
	return b.String()
}

// Figure9Selection is one bar of Figure 9: an order, the core list it
// selects, and the measured duration.
type Figure9Selection struct {
	Order    []int
	Cores    []int
	Duration float64
}

// DistinctSelections enumerates, for p processes on a LUMI node, every
// order of the ⟦2,4,2,8⟧ hierarchy whose map_cpu list is distinct (the
// paper keeps lists that reuse a core set in a different order).
func DistinctSelections(p int) ([]Figure9Selection, error) {
	node := cluster.LUMINodeHierarchy()
	seen := map[string]bool{}
	var out []Figure9Selection
	for _, sigma := range perm.All(node.Depth()) {
		list, err := slurm.MapCPU(node, sigma, p)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprint(list)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Figure9Selection{Order: append([]int(nil), sigma...), Cores: list})
	}
	return out, nil
}

// RenderFigure9 prints one process count's bars grouped by core set.
func RenderFigure9(p int, sels []Figure9Selection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d proc.\n", p)
	// Group by sorted core set like the figure's colour groups.
	bySet := map[string][]Figure9Selection{}
	var setKeys []string
	for _, s := range sels {
		key := fmt.Sprint(slurm.SelectionSet(s.Cores))
		if _, ok := bySet[key]; !ok {
			setKeys = append(setKeys, key)
		}
		bySet[key] = append(bySet[key], s)
	}
	sort.Strings(setKeys)
	var global float64
	for _, s := range sels {
		if s.Duration > global {
			global = s.Duration
		}
	}
	for _, key := range setKeys {
		group := bySet[key]
		fmt.Fprintf(&b, "  cores %s\n", compactCores(slurm.SelectionSet(group[0].Cores)))
		bars := make([]plot.Bar, len(group))
		for i, s := range group {
			mark := ""
			if isSlurmDefault(s.Cores) {
				mark = "  <- Slurm default mapping"
			}
			bars[i] = plot.Bar{Label: "    " + perm.Format(s.Order), Value: s.Duration, Note: mark}
		}
		b.WriteString(plot.BarsMax(bars, "s", 30, global))
	}
	return b.String()
}

// isSlurmDefault reports whether the core list is the block selection
// 0..p-1 in order (Slurm's default on LUMI).
func isSlurmDefault(cores []int) bool {
	for i, c := range cores {
		if c != i {
			return false
		}
	}
	return true
}

// compactCores renders a core list as ranges ("0-3,8-11").
func compactCores(cores []int) string {
	if len(cores) == 0 {
		return ""
	}
	var parts []string
	start, prev := cores[0], cores[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, c := range cores[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return strings.Join(parts, ",")
}

// LegendCharacterizations regenerates every figure legend's metrics (the
// M1 experiment of DESIGN.md).
func LegendCharacterizations() string {
	var b strings.Builder
	type entry struct {
		fig      string
		h        topology.Hierarchy
		commSize int
		orders   []string
	}
	entries := []entry{
		{"Figure 3", cluster.HydraHierarchy(16), 16, []string{"0-1-2-3", "2-1-0-3", "1-3-0-2", "1-3-2-0", "3-1-0-2", "3-2-1-0"}},
		{"Figure 4", cluster.HydraHierarchy(16), 128, []string{"0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "1-3-2-0", "3-2-1-0"}},
		{"Figure 5", cluster.LUMIHierarchy(16), 16, []string{"0-1-2-3-4", "1-2-3-0-4", "3-2-1-4-0", "3-4-0-1-2", "4-3-2-1-0"}},
		{"Figure 6", cluster.HydraHierarchy(16), 64, []string{"0-1-2-3", "2-1-0-3", "1-3-0-2", "3-1-0-2", "1-3-2-0", "3-2-1-0"}},
		{"Figure 7", cluster.LUMIHierarchy(16), 256, []string{"0-1-2-3-4", "1-2-3-0-4", "3-4-0-1-2", "3-2-1-4-0", "4-3-2-1-0"}},
	}
	for _, e := range entries {
		fmt.Fprintf(&b, "%s (%s, %d ranks/comm):\n", e.fig, e.h, e.commSize)
		for _, name := range e.orders {
			sigma, err := perm.Parse(name)
			if err != nil {
				panic(err)
			}
			ch, err := metrics.Characterize(e.h, sigma, e.commSize)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&b, "  %s\n", ch)
		}
	}
	return b.String()
}
