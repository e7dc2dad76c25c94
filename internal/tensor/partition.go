// Medium-grained partitioning: the 3D block decomposition SPLATT uses to
// distribute a tensor over a p₁×p₂×p₃ process grid. Each process owns the
// block of nonzeros whose mode-m indices fall in its grid slice; the layer
// communicators of the distributed CPD group processes sharing a grid
// coordinate.

package tensor

import "fmt"

// Grid is a 3D process grid.
type Grid [Order]int

// Size returns the number of processes of the grid.
func (g Grid) Size() int { return g[0] * g[1] * g[2] }

// Check validates the grid.
func (g Grid) Check() error {
	for m, v := range g {
		if v <= 0 {
			return fmt.Errorf("tensor: grid dimension %d is %d", m, v)
		}
	}
	return nil
}

// CoordOf returns the grid coordinate of a process rank, with the last
// grid dimension varying fastest (rank = i·p₂·p₃ + j·p₃ + k).
func (g Grid) CoordOf(rank int) [Order]int {
	return [Order]int{
		rank / (g[1] * g[2]),
		(rank / g[2]) % g[1],
		rank % g[2],
	}
}

// RankOf is the inverse of CoordOf.
func (g Grid) RankOf(c [Order]int) int {
	return c[0]*g[1]*g[2] + c[1]*g[2] + c[2]
}

// LayerIndex returns, for the given mode, which layer communicator the
// rank belongs to (processes with equal grid coordinate along the mode)
// and its rank within that layer.
func (g Grid) LayerIndex(rank, mode int) (layer, inLayer int) {
	c := g.CoordOf(rank)
	layer = c[mode]
	// Flatten the other two coordinates in mode order.
	m1 := (mode + 1) % Order
	m2 := (mode + 2) % Order
	inLayer = c[m1]*g[m2] + c[m2]
	return layer, inLayer
}

// Partition holds the per-process nonzero counts of a blocked tensor.
type Partition struct {
	Grid Grid
	// NNZ[rank] is the number of nonzeros in the process's block.
	NNZ []int
	// RowsOwned[m][rank] is the number of mode-m factor rows whose slice
	// intersects the process's layer (dims[m]/grid[m], block distributed).
	RowsOwned [Order][]int
	// DistinctRows[m][rank] is the number of distinct mode-m indices in the
	// process's block — the factor rows its fold/expand actually exchanges.
	DistinctRows [Order][]int
}

// PartitionTensor assigns each nonzero to the process owning its block
// under an even block split of every mode.
func PartitionTensor(t *Tensor, g Grid) (*Partition, error) {
	if err := g.Check(); err != nil {
		return nil, err
	}
	if err := t.Check(); err != nil {
		return nil, err
	}
	size := g.Size()
	p := &Partition{Grid: g, NNZ: make([]int, size)}
	blockOf := func(idx int32, dim, parts int) int {
		// Even block split: boundaries at dim·i/parts.
		b := int(int64(idx) * int64(parts) / int64(dim))
		if b >= parts {
			b = parts - 1
		}
		return b
	}
	// Counting sort of the nonzeros by owning rank: count, then scatter.
	owner := make([]int32, len(t.Inds))
	for i, c := range t.Inds {
		var gc [Order]int
		for m := 0; m < Order; m++ {
			gc[m] = blockOf(c[m], t.Dims[m], g[m])
		}
		rank := g.RankOf(gc)
		owner[i] = int32(rank)
		p.NNZ[rank]++
	}
	end := make([]int, size) // where the rank's next nonzero goes
	for rank, sum := 0, 0; rank < size; rank++ {
		end[rank] = sum
		sum += p.NNZ[rank]
	}
	byRank := make([]Coord, len(t.Inds))
	for i, c := range t.Inds {
		byRank[end[owner[i]]] = c
		end[owner[i]]++
	}
	// A rank's nonzeros are now byRank[end[rank-1]:end[rank]], so one stamp
	// per row of the mode — the last rank seen to hold it — counts the
	// distinct rows of every block in a single pass.
	for m := 0; m < Order; m++ {
		p.DistinctRows[m] = make([]int, size)
		stamp := make([]int32, t.Dims[m])
		lo := 0
		for rank := 0; rank < size; rank++ {
			for _, c := range byRank[lo:end[rank]] {
				if stamp[c[m]] != int32(rank)+1 {
					stamp[c[m]] = int32(rank) + 1
					p.DistinctRows[m][rank]++
				}
			}
			lo = end[rank]
		}
	}
	for m := 0; m < Order; m++ {
		p.RowsOwned[m] = make([]int, size)
		for rank := 0; rank < size; rank++ {
			gc := g.CoordOf(rank)
			lo := t.Dims[m] * gc[m] / g[m]
			hi := t.Dims[m] * (gc[m] + 1) / g[m]
			p.RowsOwned[m][rank] = hi - lo
		}
	}
	return p, nil
}

// TotalNNZ returns the sum of all blocks.
func (p *Partition) TotalNNZ() int {
	s := 0
	for _, n := range p.NNZ {
		s += n
	}
	return s
}
