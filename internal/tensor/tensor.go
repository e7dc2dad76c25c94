// Package tensor implements the sparse-tensor toolkit standing in for
// Splatt (Smith et al., §4.2): three-mode sparse tensors in coordinate
// format, a synthetic skewed generator replacing the proprietary-scale
// FROSTT nell-1 input, the cost model of the MTTKRP kernel, and the 3D
// process grid and its block partition. The distributed medium-grained
// decomposition over that grid lives in package splatt; the sequential
// CP-ALS that verifies its numerics lives in this package's tests.
package tensor

import (
	"fmt"
	"math/rand"
	"sort"
)

// Order is the number of modes (fixed at 3 like the paper's experiments).
const Order = 3

// Coord is one nonzero's position.
type Coord [Order]int32

// Tensor is a three-mode sparse tensor in coordinate (COO) format.
type Tensor struct {
	Dims [Order]int
	Inds []Coord
	Vals []float64
}

// NNZ returns the number of stored nonzeros.
func (t *Tensor) NNZ() int { return len(t.Vals) }

// Check validates index ranges and shape consistency.
func (t *Tensor) Check() error {
	if len(t.Inds) != len(t.Vals) {
		return fmt.Errorf("tensor: %d coords but %d values", len(t.Inds), len(t.Vals))
	}
	for m := 0; m < Order; m++ {
		if t.Dims[m] <= 0 {
			return fmt.Errorf("tensor: non-positive dimension %d", t.Dims[m])
		}
	}
	for i, c := range t.Inds {
		for m := 0; m < Order; m++ {
			if c[m] < 0 || int(c[m]) >= t.Dims[m] {
				return fmt.Errorf("tensor: nonzero %d index %d out of range [0, %d)", i, c[m], t.Dims[m])
			}
		}
	}
	return nil
}

// sortable packages indices and values for joint sorting.
type sortable struct {
	t    *Tensor
	mode int
}

func (s sortable) Len() int { return s.t.NNZ() }
func (s sortable) Less(a, b int) bool {
	for i := 0; i < Order; i++ {
		m := (s.mode + i) % Order
		if s.t.Inds[a][m] != s.t.Inds[b][m] {
			return s.t.Inds[a][m] < s.t.Inds[b][m]
		}
	}
	return false
}
func (s sortable) Swap(a, b int) {
	s.t.Inds[a], s.t.Inds[b] = s.t.Inds[b], s.t.Inds[a]
	s.t.Vals[a], s.t.Vals[b] = s.t.Vals[b], s.t.Vals[a]
}

// Sort sorts nonzeros lexicographically starting at the given mode.
func (t *Tensor) Sort(mode int) { sort.Sort(sortable{t: t, mode: mode}) }

// SyntheticNell mimics the FROSTT nell-1 tensor's defining trait for the
// paper's Figure 8: besides scattered per-mode hubs, its huge first mode
// has a contiguous band of extremely hot slices (NELL's high-degree
// entities cluster at the front of the entity vocabulary), so the
// medium-grained layers along mode 0 carry *very unequal* communication
// volumes — about 40 % of the nonzeros fall into the first ~1.5 % of the
// mode-0 index space. This inter-layer imbalance is what makes spread rank
// orders win for Splatt (the dominant layer multiplexes every NIC) even
// though balanced micro-benchmarks favour packed orders.
func SyntheticNell(dims [Order]int, nnz int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Coord]float64, nnz)
	hotBand := dims[0] * 3 / 200 // first 1.5 % of mode-0 slices
	if hotBand < 1 {
		hotBand = 1
	}
	hub := func(dim int) []int32 {
		nh := dim / 20
		if nh < 1 {
			nh = 1
		}
		set := map[int32]bool{}
		out := make([]int32, 0, nh)
		for len(out) < nh {
			h := int32(rng.Intn(dim))
			if !set[h] {
				set[h] = true
				out = append(out, h)
			}
		}
		return out
	}
	hubs1, hubs2 := hub(dims[1]), hub(dims[2])
	for len(seen) < nnz {
		var c Coord
		if rng.Float64() < 0.4 {
			c[0] = int32(rng.Intn(hotBand))
		} else {
			c[0] = int32(rng.Intn(dims[0]))
		}
		if rng.Float64() < 0.3 {
			c[1] = hubs1[rng.Intn(len(hubs1))]
		} else {
			c[1] = int32(rng.Intn(dims[1]))
		}
		if rng.Float64() < 0.3 {
			c[2] = hubs2[rng.Intn(len(hubs2))]
		} else {
			c[2] = int32(rng.Intn(dims[2]))
		}
		seen[c] += rng.Float64()*2 - 0.5
	}
	t := &Tensor{Dims: dims}
	t.Inds = make([]Coord, 0, len(seen))
	t.Vals = make([]float64, 0, len(seen))
	for c, v := range seen {
		t.Inds = append(t.Inds, c)
		t.Vals = append(t.Vals, v)
	}
	t.Sort(0)
	return t
}

// FlopsPerMTTKRP estimates the floating-point work of one MTTKRP sweep:
// 3R multiplies/adds per nonzero.
func FlopsPerMTTKRP(nnz, rank int) float64 {
	return 3 * float64(nnz) * float64(rank)
}

// BytesPerMTTKRP estimates the memory traffic of one MTTKRP sweep: the
// nonzero stream (coords + value) plus two factor-row reads and one
// accumulator update per nonzero.
func BytesPerMTTKRP(nnz, rank int) float64 {
	return float64(nnz) * (float64(Order*4+8) + 3*8*float64(rank))
}
