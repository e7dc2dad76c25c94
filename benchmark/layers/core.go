package layers

import (
	"bytes"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/reorder"
	"repro/internal/slurm"
	"repro/internal/topology"
)

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink int

// probeCore times the paper's own enumeration code: the layers that do
// all the work of enum_core.
func probeCore(m Metrics) error {
	d6 := topology.MustNew(4, 2, 4, 2, 4, 2)
	sigma6 := perm.Reversed(6)
	var err error
	m["metrics.characterize_ns_per_op"], m["metrics.characterize_allocs_per_op"] = perOp(20000, func() {
		var ch metrics.Characterization
		ch, err = metrics.Characterize(d6, sigma6, 64)
		sink += ch.RingCost
	})
	if err != nil {
		return err
	}
	m["metrics.signature_ns_per_op"], _ = perOp(20000, func() {
		_, err = metrics.OrderSignature(d6, sigma6, 64, metrics.SignatureOpts{Ring: true})
	})
	if err != nil {
		return err
	}

	// Bulk table fills and point queries of the same reordering at 8192
	// ranks: a gain for one that costs the other shows side by side.
	ar := []int{8, 2, 2, 4, 2, 4, 8}
	ro, err := mixedradix.NewReorderer(ar, []int{6, 4, 2, 0, 1, 3, 5})
	if err != nil {
		return err
	}
	n := ro.Size()
	table, inverse := make([]int, n), make([]int, n)
	ns, allocs := perOp(500, func() { ro.TableInto(table) })
	m["mixedradix.table_ns_per_rank"], m["mixedradix.table_allocs_per_op"] = ns/float64(n), allocs
	ns, _ = perOp(500, func() { ro.InverseTableInto(inverse) })
	m["mixedradix.inverse_ns_per_rank"] = ns / float64(n)
	ns, _ = perOp(50, func() {
		for r := 0; r < n; r++ {
			sink += ro.NewRank(r)
		}
	})
	m["mixedradix.point_ns_per_rank"] = ns / float64(n)

	ns, _ = perOp(20, func() {
		perm.Visit(8, func(p []int) bool { sink += p[0]; return true })
	})
	m["perm.visit_ns_per_order"] = ns / float64(perm.Factorial(8))
	m["perm.unrank_ns_per_op"], _ = perOp(100000, func() { sink += perm.Unrank(8, 20160)[0] })
	m["topology.parse_ns_per_op"], _ = perOp(20000, func() {
		var h topology.Hierarchy
		h, err = topology.Parse("16,2,4,2,8")
		sink += h.Depth()
	})
	if err != nil {
		return err
	}

	node := cluster.LUMINodeHierarchy()
	ns, _ = perOp(2000, func() {
		var cores []int
		cores, err = slurm.MapCPU(node, []int{3, 1, 0, 2}, 64)
		sink += len(cores)
	})
	if err != nil {
		return err
	}
	m["slurm.mapcpu_us_per_op"] = ns / 1e3
	lumi := cluster.LUMIHierarchy(16) // 2048 ranks
	var buf bytes.Buffer
	ns, _ = perOp(40, func() {
		buf.Reset()
		var rf *reorder.Reordering
		if rf, err = reorder.New(lumi, []int{3, 2, 1, 4, 0}); err == nil {
			err = rf.Rankfile(&buf)
		}
	})
	if err != nil {
		return err
	}
	m["reorder.rankfile_us_per_op"] = ns / 1e3
	return nil
}
