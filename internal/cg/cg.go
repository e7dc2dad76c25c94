// Package cg implements the conjugate-gradient benchmark of the paper's
// strong-scaling experiment (§4.3), modelled on the NAS Parallel Benchmarks
// CG kernel: repeated CG solves against a random sparse symmetric
// positive-definite matrix, with an outer eigenvalue (ζ) estimation loop.
//
// The distributed solver runs real numerics through the simulated MPI
// runtime — rows are block-distributed, the matvec gathers the input
// vector with MPI_Allgather and the dot products use MPI_Allreduce — while
// every local kernel charges the roofline compute model, so the measured
// virtual time reflects how the selected cores share L3/NUMA/socket memory
// bandwidth. That sharing is exactly what Figure 9 probes with different
// --cpu-bind=map_cpu core selections.
//
// Substitution note: NPB's CG distributes over a 2D process grid with
// pairwise reductions; on a single node the 1D row-block decomposition
// used here has the same compute/communication balance and keeps the
// numerics bit-verifiable against the sequential solver.
package cg

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// Problem describes one benchmark instance (an NPB class analogue).
type Problem struct {
	N          int // matrix dimension
	NNZPerRow  int // off-diagonal nonzeros per row before symmetrization
	OuterIters int // ζ-estimation iterations
	InnerIters int // CG iterations per outer step (NPB uses 25)
	Lambda     float64
	Seed       int64
}

// ClassS is a small verification-sized instance.
func ClassS() Problem {
	return Problem{N: 1400, NNZPerRow: 7, OuterIters: 3, InnerIters: 15, Lambda: 10, Seed: 314159}
}

// ClassCScaled is the strong-scaling instance: NPB class C shrunk to keep
// the real numerics tractable while remaining firmly memory-bound per
// core. The paper's absolute durations differ; the scaling shape is
// preserved because both compute and communication scale with N/p.
func ClassCScaled() Problem {
	return Problem{N: 32768, NNZPerRow: 11, OuterIters: 3, InnerIters: 25, Lambda: 20, Seed: 271828}
}

// SparseMatrix is a symmetric positive-definite matrix in CSR form.
type SparseMatrix struct {
	N      int
	RowPtr []int32
	ColIdx []int32
	Values []float64
}

// NNZ returns the number of stored entries.
func (m *SparseMatrix) NNZ() int { return len(m.Values) }

// Generate builds the random SPD matrix of the problem: a symmetrized
// random sparsity pattern with a diagonally dominant main diagonal
// (rowsum + λ), in the spirit of NPB's makea.
func (p Problem) Generate() *SparseMatrix {
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.N
	cols := make([]map[int32]float64, n)
	for i := range cols {
		cols[i] = make(map[int32]float64, 2*p.NNZPerRow)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < p.NNZPerRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64() - 0.5
			cols[i][int32(j)] += v
			cols[j][int32(i)] += v // keep symmetry
		}
	}
	m := &SparseMatrix{N: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		// Diagonal dominance ⇒ positive definiteness.
		var rowAbs float64
		idx := make([]int32, 0, len(cols[i])+1)
		for j := range cols[i] {
			idx = append(idx, j)
		}
		sortInt32(idx)
		for _, j := range idx {
			rowAbs += math.Abs(cols[i][j])
		}
		diag := rowAbs + p.Lambda
		inserted := false
		for _, j := range idx {
			if !inserted && j > int32(i) {
				m.ColIdx = append(m.ColIdx, int32(i))
				m.Values = append(m.Values, diag)
				inserted = true
			}
			m.ColIdx = append(m.ColIdx, j)
			m.Values = append(m.Values, cols[i][j])
		}
		if !inserted {
			m.ColIdx = append(m.ColIdx, int32(i))
			m.Values = append(m.Values, diag)
		}
		m.RowPtr[i+1] = int32(len(m.Values))
	}
	return m
}

func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// MatVec computes y = A·x for rows [lo, hi), reading the full x.
func (m *SparseMatrix) MatVec(lo, hi int, x, y []float64) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Values[k] * x[m.ColIdx[k]]
		}
		y[i-lo] = s
	}
}

// Result is one benchmark run's outcome.
type Result struct {
	Duration float64 // virtual seconds of the timed section
	Zeta     float64 // NPB-style eigenvalue estimate
	Residual float64 // final ‖r‖ of the last CG solve
}

// cgSolve performs InnerIters CG iterations solving A·z = x, writing z and
// returning the final residual norm. When comm is non-nil the caller is a
// distributed rank owning rows [lo, hi), exchanging via allgather/allreduce
// through the communicator; vectors z, r, p, q are then hi-lo long and x is
// the full vector. The distributed and sequential paths share this code so
// the numerics are identical by construction.
func cgSolve(m *SparseMatrix, lo, hi int, x []float64, z, r, p, q []float64, iters int, rk *mpi.Rank, comm *mpi.Comm) float64 {
	local := hi - lo
	for i := 0; i < local; i++ {
		z[i] = 0
		r[i] = x[lo+i]
		p[i] = r[i]
	}
	rho := dotDist(r, r, rk, comm)
	full := x
	if comm != nil {
		full = make([]float64, m.N)
	}
	for it := 0; it < iters; it++ {
		pFull := gatherDist(p, full, lo, rk, comm)
		chargeMatvec(m, lo, hi, rk)
		m.MatVec(lo, hi, pFull, q)
		d := dotDist(p, q, rk, comm)
		alpha := rho / d
		for i := 0; i < local; i++ {
			z[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		chargeVecOps(local, 2, rk)
		rhoNew := dotDist(r, r, rk, comm)
		beta := rhoNew / rho
		rho = rhoNew
		for i := 0; i < local; i++ {
			p[i] = r[i] + beta*p[i]
		}
		chargeVecOps(local, 1, rk)
	}
	// Final residual ‖x − A·z‖ (NPB computes it once per outer step).
	zFull := gatherDist(z, full, lo, rk, comm)
	chargeMatvec(m, lo, hi, rk)
	m.MatVec(lo, hi, zFull, q)
	var sum float64
	for i := 0; i < local; i++ {
		d := x[lo+i] - q[i]
		sum += d * d
	}
	if comm != nil {
		out := comm.Allreduce(rk, mpi.F64Buf([]float64{sum}), mpi.OpSum)
		sum = out.Data[0]
	}
	return math.Sqrt(sum)
}

// dotDist is a distributed dot product (local partial + Allreduce).
func dotDist(a, b []float64, rk *mpi.Rank, comm *mpi.Comm) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	chargeVecOps(len(a), 1, rk)
	if comm == nil {
		return s
	}
	out := comm.Allreduce(rk, mpi.F64Buf([]float64{s}), mpi.OpSum)
	return out.Data[0]
}

// gatherDist assembles the full vector from the block-distributed v.
// Sequential callers get v back unchanged.
func gatherDist(v, full []float64, lo int, rk *mpi.Rank, comm *mpi.Comm) []float64 {
	if comm == nil {
		return v
	}
	parts := comm.Allgather(rk, mpi.F64Buf(v))
	off := 0
	for _, part := range parts {
		copy(full[off:], part.Data)
		off += len(part.Data)
	}
	return full
}

// chargeMatvec charges the roofline for the local sparse matvec: 2 flops
// per nonzero, streaming the nonzeros (value + column index) and the dense
// vectors.
func chargeMatvec(m *SparseMatrix, lo, hi int, rk *mpi.Rank) {
	if rk == nil {
		return
	}
	nnz := int(m.RowPtr[hi] - m.RowPtr[lo])
	rows := hi - lo
	flops := 2 * float64(nnz)
	bytes := float64(nnz)*12 + float64(rows)*8*2 + float64(m.N)*8*0.25
	rk.Compute(flops, bytes)
}

// chargeVecOps charges n-element vector updates (k fused axpy-like ops).
func chargeVecOps(n, k int, rk *mpi.Rank) {
	if rk == nil {
		return
	}
	rk.Compute(2*float64(n*k), float64(n*k)*8*3)
}

// Run executes the distributed benchmark on the machine with the given
// rank→core binding (the map_cpu list of §3.4) and returns the timed
// duration, ζ, and final residual. The matrix is generated once and shared
// read-only by all ranks, as NPB's per-rank makea produces identical data.
func Run(spec netmodel.Spec, binding []int, prob Problem, cfg mpi.Config) (Result, error) {
	nprocs := len(binding)
	if nprocs == 0 {
		return Result{}, fmt.Errorf("cg: empty binding")
	}
	if prob.N%nprocs != 0 {
		return Result{}, fmt.Errorf("cg: %d rows do not divide over %d ranks", prob.N, nprocs)
	}
	m := prob.Generate()
	var result Result
	sc := cfg.Obs
	_, err := mpi.Run(spec, binding, cfg, func(r *mpi.Rank) {
		comm := r.World()
		local := prob.N / nprocs
		lo := r.ID() * local
		hi := lo + local
		x := make([]float64, prob.N)
		for i := range x {
			x[i] = 1
		}
		z := make([]float64, local)
		res := make([]float64, local)
		p := make([]float64, local)
		q := make([]float64, local)

		comm.Barrier(r)
		start := r.Now()
		phases := r.ID() == 0
		if phases {
			sc.Phase("cg.setup", 0, start, obs.Arg{Key: "ranks", Val: int64(nprocs)})
		}
		var zeta, finalRes float64
		for outer := 0; outer < prob.OuterIters; outer++ {
			outerStart := r.Now()
			finalRes = cgSolve(m, lo, hi, x, z, res, p, q, prob.InnerIters, r, comm)
			var xz, zz float64
			for i := 0; i < local; i++ {
				xz += x[lo+i] * z[i]
				zz += z[i] * z[i]
			}
			sums := comm.Allreduce(r, mpi.F64Buf([]float64{xz, zz}), mpi.OpSum)
			zeta = prob.Lambda + 1/sums.Data[0]
			norm := math.Sqrt(sums.Data[1])
			// x ← z/‖z‖, assembled from every rank's block.
			parts := comm.Allgather(r, mpi.F64Buf(z))
			off := 0
			for _, part := range parts {
				for i := range part.Data {
					x[off+i] = part.Data[i] / norm
				}
				off += len(part.Data)
			}
			chargeVecOps(local, 1, r)
			if phases {
				sc.Phase("cg.outer", outerStart, r.Now(), obs.Arg{Key: "outer", Val: int64(outer)})
			}
		}
		comm.Barrier(r)
		if phases {
			sc.Phase("cg.timed", start, r.Now(), obs.Arg{Key: "outer_iters", Val: int64(prob.OuterIters)})
		}
		if r.ID() == 0 {
			result = Result{Duration: r.Now() - start, Zeta: zeta, Residual: finalRes}
		}
	})
	if err != nil {
		return Result{}, err
	}
	return result, nil
}
