// Building the communication matrix at runtime from the simulated MPI's
// point-to-point stream (the introspection-monitoring approach of the
// paper's §2 reference [11]): the obs scope's p2p instants carry each
// message's sender, receiver and bytes.

package commmatrix

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/topology"
)

// p2pScope returns a scope that records one instant per message.
func p2pScope() *obs.Scope { return obs.New(obs.Options{P2PEvents: true}) }

// p2pMatrix accumulates sc's p2p instants into a matrix of n ranks,
// skipping self-messages and empty ones.
func p2pMatrix(t *testing.T, sc *obs.Scope, n int) *Matrix {
	t.Helper()
	if d := sc.DroppedSpans(); d > 0 {
		t.Fatalf("scope dropped %d events past its cap", d)
	}
	m := New(n)
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
	sc := p2pScope()
	binding := []int{0, 1, 2, 3}
	_, err := mpi.Run(testSpec(), binding, mpi.Config{Obs: sc}, func(r *mpi.Rank) {
		// A binomial-tree broadcast from rank 0: 0→2, then 0→1 and 2→3.
		r.World().Bcast(r, 0, mpi.BytesBuf(1000))
	})
	if err != nil {
		t.Fatal(err)
	}
	m := p2pMatrix(t, sc, 4)
	if m.At(0, 1) != 1000 {
		t.Errorf("At(0,1) = %v, want 1000", m.At(0, 1))
	}
	if m.At(0, 2) != 1000 || m.At(2, 3) != 1000 || m.Total() != 3000 {
		t.Errorf("At(0,2) = %v, At(2,3) = %v, Total = %v; want 1000, 1000, 3000", m.At(0, 2), m.At(2, 3), m.Total())
	}
}

// Run a block-subcommunicator workload under a p2p scope, then ask
// bestOrder which mixed-radix order the observed matrix recommends: the
// end-to-end introspect-then-reorder loop of §2.
func TestCollectorDrivesBestOrder(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	sc := p2pScope()
	binding := make([]int, 16)
	for i := range binding {
		binding[i] = i
	}
	_, err := mpi.Run(testSpec(), binding, mpi.Config{Obs: sc}, func(r *mpi.Rank) {
		w := r.World()
		sub := w.Split(r, r.ID()/4, r.ID()%4) // 4 blocks of 4 consecutive ranks
		sub.AlltoallBytes(r, 4096)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := p2pMatrix(t, sc, 16)
	if m.Total() <= 0 {
		t.Fatal("scope saw no traffic")
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
	sc := p2pScope()
	binding := make([]int, 8)
	for i := range binding {
		binding[i] = i
	}
	_, err := mpi.Run(testSpec(), binding[:8], mpi.Config{Obs: sc}, func(r *mpi.Rank) {
		r.World().AllreduceBytes(r, 1<<20)
	})
	if err != nil {
		t.Fatal(err)
	}
	if total := p2pMatrix(t, sc, 8).Total(); total < 1<<20 {
		t.Errorf("allreduce traffic %v too small", total)
	}
}
