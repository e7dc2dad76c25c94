package tensor

import (
	"math/rand"
	"reflect"
	"testing"
)

// partitionOracle is the map-based partition PartitionTensor replaced: one
// set of row indices per (mode, rank). It survives here as the reference
// the counting-sort implementation is compared against.
func partitionOracle(t *Tensor, g Grid) (nnz []int, distinct [Order][]int) {
	nnz = make([]int, g.Size())
	var sets [Order][]map[int32]struct{}
	for m := range sets {
		sets[m] = make([]map[int32]struct{}, g.Size())
		for rank := range sets[m] {
			sets[m][rank] = make(map[int32]struct{})
		}
	}
	for _, c := range t.Inds {
		var gc [Order]int
		for m := range gc {
			gc[m] = int(int64(c[m]) * int64(g[m]) / int64(t.Dims[m]))
		}
		rank := g.RankOf(gc)
		nnz[rank]++
		for m := range sets {
			sets[m][rank][c[m]] = struct{}{}
		}
	}
	for m := range sets {
		distinct[m] = make([]int, g.Size())
		for rank, set := range sets[m] {
			distinct[m][rank] = len(set)
		}
	}
	return nnz, distinct
}

func TestPartitionTensorMatchesMapOracle(t *testing.T) {
	check := func(name string, ts *Tensor, g Grid) {
		t.Helper()
		p, err := PartitionTensor(ts, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nnz, distinct := partitionOracle(ts, g)
		if !reflect.DeepEqual(p.NNZ, nnz) {
			t.Errorf("%s (dims %v, grid %v): NNZ = %v, oracle %v", name, ts.Dims, g, p.NNZ, nnz)
		}
		if !reflect.DeepEqual(p.DistinctRows, distinct) {
			t.Errorf("%s (dims %v, grid %v): DistinctRows = %v, oracle %v", name, ts.Dims, g, p.DistinctRows, distinct)
		}
	}

	// A mode of size 1 split over a grid that is wider than the tensor in
	// every mode: most ranks own nothing, and repeated coordinates make the
	// distinct counts differ from the nonzero counts.
	sparse := &Tensor{
		Dims: [Order]int{1, 3, 2},
		Inds: []Coord{{0, 0, 0}, {0, 0, 0}, {0, 2, 1}, {0, 2, 0}, {0, 2, 1}},
		Vals: make([]float64, 5),
	}
	check("empty ranks", sparse, Grid{2, 4, 3})
	check("no nonzeros", &Tensor{Dims: [Order]int{4, 4, 4}}, Grid{2, 2, 1})

	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 60; i++ {
		var dims [Order]int
		var g Grid
		for m := range dims {
			dims[m] = 1 + rng.Intn(30)
			g[m] = 1 + rng.Intn(5)
		}
		dims[rng.Intn(Order)] = 1 + rng.Intn(2) // a degenerate mode now and then
		ts := &Tensor{Dims: dims}
		for n := rng.Intn(400); n > 0; n-- {
			var c Coord
			for m := range c {
				c[m] = int32(rng.Intn(dims[m]))
			}
			ts.Inds = append(ts.Inds, c)
			ts.Vals = append(ts.Vals, 1)
		}
		check("random", ts, g)
	}
	check("synthetic", Synthetic([Order]int{40, 25, 60}, 3000, 4), Grid{2, 3, 4})
}
