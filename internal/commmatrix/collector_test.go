package commmatrix

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

func testSpec() netmodel.Spec {
	return netmodel.Spec{
		Name: "test",
		Levels: []netmodel.LevelSpec{
			{Name: "node", Arity: 2, UpBandwidth: 10e9, BusBandwidth: 50e9, Latency: 2e-6},
			{Name: "socket", Arity: 2, UpBandwidth: 20e9, BusBandwidth: 30e9, Latency: 1e-6},
			{Name: "core", Arity: 4, Latency: 0.1e-6},
		},
	}
}

func TestCollectorRecordsP2P(t *testing.T) {
	col := NewCollector(4)
	binding := []int{0, 1, 2, 3}
	_, err := mpi.Run(testSpec(), binding, mpi.Config{P2P: col}, func(r *mpi.Rank) {
		// A binomial-tree broadcast from rank 0: 0→2, then 0→1 and 2→3.
		r.World().Bcast(r, 0, mpi.BytesBuf(1000))
	})
	if err != nil {
		t.Fatal(err)
	}
	m := col.Matrix()
	if m.At(0, 1) != 1000 {
		t.Errorf("At(0,1) = %v, want 1000", m.At(0, 1))
	}
	if m.At(0, 2) != 1000 || m.At(2, 3) != 1000 || m.Total() != 3000 {
		t.Errorf("At(0,2) = %v, At(2,3) = %v, Total = %v; want 1000, 1000, 3000", m.At(0, 2), m.At(2, 3), m.Total())
	}
}

// Run a block-subcommunicator workload under the collector, then ask
// bestOrder which mixed-radix order the observed matrix recommends: the
// end-to-end introspect-then-reorder loop of §2.
func TestCollectorDrivesBestOrder(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	col := NewCollector(16)
	binding := make([]int, 16)
	for i := range binding {
		binding[i] = i
	}
	_, err := mpi.Run(testSpec(), binding, mpi.Config{P2P: col}, func(r *mpi.Rank) {
		w := r.World()
		sub := w.Split(r, r.ID()/4, r.ID()%4) // 4 blocks of 4 consecutive ranks
		sub.AlltoallBytes(r, 4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := col.Matrix()
	if m.Total() <= 0 {
		t.Fatal("collector saw no traffic")
	}
	sigma, _ := bestOrder(t, m, h)
	// Consecutive 4-rank blocks → packed orders are optimal.
	name := perm.Format(sigma)
	if name != "2-1-0" && name != "2-0-1" {
		t.Errorf("observed matrix recommends %s, want a packed order", name)
	}
}

// Collective algorithms' internal messages must show up too.
func TestCollectorSeesCollectiveTraffic(t *testing.T) {
	col := NewCollector(8)
	binding := make([]int, 8)
	for i := range binding {
		binding[i] = i
	}
	_, err := mpi.Run(testSpec(), binding[:8], mpi.Config{P2P: col}, func(r *mpi.Rank) {
		r.World().AllreduceBytes(r, 1<<20)
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Matrix().Total() < 1<<20 {
		t.Errorf("allreduce traffic %v too small", col.Matrix().Total())
	}
}
