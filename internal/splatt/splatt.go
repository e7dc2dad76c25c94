// Package splatt simulates Splatt's distributed medium-grained CP-ALS
// (§4.2 of the paper): 1024 MPI ranks on a 64×4×4 process grid, layer
// communicators per mode, and the per-iteration collective mix observed by
// mpisee on the real application — MPI_Alltoallv inside the layers (the
// dominant cost, Pearson-correlated 0.98 with the CPD duration on the
// 16-process layers), plus Allreduce/Bcast/Reduce/Scan/Gather on the world
// communicators. The compute phases charge the roofline with the MTTKRP
// flop and byte counts of the rank's actual tensor block.
//
// The driver measures the CPD duration under an arbitrary rank order σ,
// reproducing Figure 8.
package splatt

import (
	"fmt"

	"repro/internal/mixedradix"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// DefaultGrid is the process grid matching the paper's communicator census
// on 1024 ranks: 64 mode-1 layers of 16 ranks (the Alltoallv-heavy ones)
// and 4+4 layers of 256.
var DefaultGrid = tensor.Grid{64, 4, 4}

// Config describes one simulated Splatt run.
type Config struct {
	Spec      netmodel.Spec
	Hierarchy topology.Hierarchy
	Order     []int // rank-reordering order σ for MPI_COMM_WORLD
	Grid      tensor.Grid
	Tensor    *tensor.Tensor
	Rank      int // CP rank R
	Iters     int // ALS iterations
	MPI       mpi.Config
}

// Result is one run's outcome.
type Result struct {
	// Duration is the virtual time of the CPD operation (max over ranks).
	Duration float64
	// Alltoall maps each layer-communicator size to the most time any
	// rank spent in that size's Alltoallv: §4.2's attribution of the CPD
	// duration, which the paper reads off mpisee.
	Alltoall map[int]float64
}

// Run simulates the CPD under the configured rank order.
func Run(cfg Config) (*Result, error) {
	n := cfg.Hierarchy.Size()
	g := cfg.Grid
	if g.Size() == 0 {
		g = DefaultGrid
	}
	if g.Size() != n {
		return nil, fmt.Errorf("splatt: grid %v needs %d ranks, machine has %d cores", g, g.Size(), n)
	}
	if cfg.Rank <= 0 {
		cfg.Rank = 16
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	ro, err := mixedradix.NewReorderer(cfg.Hierarchy.Arities(), cfg.Order)
	if err != nil {
		return nil, err
	}
	part, err := tensor.PartitionTensor(cfg.Tensor, g)
	if err != nil {
		return nil, err
	}
	table := ro.Table()

	binding := make([]int, n)
	for i := range binding {
		binding[i] = i
	}
	res := &Result{Alltoall: map[int]float64{}}
	sc := cfg.MPI.Obs
	_, err = mpi.Run(cfg.Spec, binding, cfg.MPI, func(r *mpi.Rank) {
		d := cpdRank(r, sc, table, g, part, cfg.Rank, cfg.Iters, res.Alltoall)
		if r.ID() == 0 {
			res.Duration = d
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cpdRank is the per-rank body of the simulated CPD. It returns the
// duration between the post-setup barrier and the end of the ALS loop
// (synchronized by a final barrier, so every rank reports the same value),
// and raises alltoall[size] to the rank's time in the Alltoallv of each
// layer size. The engine runs one rank at a time, so alltoall needs no lock.
func cpdRank(r *mpi.Rank, sc *obs.Scope, table []int, g tensor.Grid, part *tensor.Partition, cpRank, iters int, alltoall map[int]float64) float64 {
	world := r.World()
	// The paper's black-box reordering: split with the reordered rank as
	// key; the application then uses this communicator as its world.
	newRank := table[r.ID()]
	comm := world.Split(r, 0, newRank)
	me := comm.Rank()

	// Splatt's communicator setup (census: 3 world-sized comms).
	commA := comm.Dup(r)
	commB := comm.Dup(r)

	// Layer communicators per mode.
	var layers [tensor.Order]*mpi.Comm
	for m := 0; m < tensor.Order; m++ {
		layer, inLayer := g.LayerIndex(me, m)
		layers[m] = comm.Split(r, layer, inLayer)
	}
	// Alltoallv time per layer size, summed in call order. Modes whose
	// layers have equal sizes share the slot of the first such mode, so a
	// sum interleaves them as the calls do.
	var slot [tensor.Order]int
	var spent [tensor.Order]float64
	for m := range layers {
		slot[m] = m
		for j := 0; j < m; j++ {
			if layers[j].Size() == layers[m].Size() {
				slot[m] = j
				break
			}
		}
	}

	// SPLATT balances nonzeros across processes with chunked partition
	// boundaries, so the MTTKRP compute load is flat; our simpler block
	// partition leaves the communication volumes (distinct rows per block)
	// hub-driven, which is the imbalance the rank order interacts with.
	nnz := part.TotalNNZ() / len(part.NNZ)
	R := cpRank

	// Initial setup: exchange row offsets (Scan) and factor seeds (Bcast).
	comm.Scan(r, mpi.BytesBuf(8*tensor.Order), mpi.OpSum)
	commA.Bcast(r, 0, mpi.BytesBuf(int64(R)*8))

	comm.Barrier(r)
	start := r.Now()
	phases := r.ID() == 0
	if phases {
		sc.Phase("splatt.setup", 0, start)
	}
	for it := 0; it < iters; it++ {
		iterStart := r.Now()
		for m := 0; m < tensor.Order; m++ {
			// Local MTTKRP on this rank's block.
			r.Compute(tensor.FlopsPerMTTKRP(nnz, R), tensor.BytesPerMTTKRP(nnz, R))

			// Medium-grained fold+expand: exchange partial factor rows
			// within the layer. The rows a rank actually exchanges are the
			// distinct mode-m indices of its block, spread over the layer
			// peers (Alltoallv).
			lc := layers[m]
			rows := part.DistinctRows[m][me]
			perPeer := int64(rows) * int64(R) * 8 / int64(lc.Size())
			if perPeer < 64 {
				perPeer = 64
			}
			send := make([]mpi.Buf, lc.Size())
			for i := range send {
				send[i] = mpi.BytesBuf(perPeer)
			}
			t0 := r.Now()
			lc.Alltoall(r, send) // MPI_Alltoallv
			spent[slot[m]] += r.Now() - t0

			// Gram matrix of the updated factor: world Allreduce of R×R.
			commA.Allreduce(r, mpi.BytesBuf(int64(R*R)*8), mpi.OpSum)

			// Column norms: Reduce to 0 then Bcast of λ.
			commB.Reduce(r, 0, mpi.BytesBuf(int64(R)*8), mpi.OpMax)
			commB.Bcast(r, 0, mpi.BytesBuf(int64(R)*8))
		}
		// Fit: inner products reduced across the world.
		comm.Allreduce(r, mpi.BytesBuf(16), mpi.OpSum)
		if phases {
			sc.Phase("splatt.iter", iterStart, r.Now(), obs.Arg{Key: "iter", Val: int64(it)})
		}
	}
	comm.Barrier(r)
	elapsed := r.Now() - start
	for m, l := range layers {
		if slot[m] == m {
			alltoall[l.Size()] = max(alltoall[l.Size()], spent[m])
		}
	}
	if phases {
		sc.Phase("splatt.cpd", start, r.Now(), obs.Arg{Key: "iters", Val: int64(iters)})
	}

	// Final factor gather to rank 0 (outside the timed CPD, as in Splatt's
	// output stage, but it exercises MPI_Gather for the census).
	comm.Gather(r, 0, mpi.BytesBuf(int64(R)*8))
	return elapsed
}
