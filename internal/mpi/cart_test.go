package mpi

import (
	"reflect"
	"testing"
)

func TestCartCreateNoReorder(t *testing.T) {
	runWorld(t, 16, Config{}, func(r *Rank) {
		cc, err := r.World().CartCreate(r, []int{4, 4}, nil, false)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if cc.Rank() != r.ID() {
			t.Errorf("rank %d renumbered to %d without reorder", r.ID(), cc.Rank())
		}
		coords := cc.Coords(cc.Rank())
		want := []int{r.ID() / 4, r.ID() % 4}
		if !reflect.DeepEqual(coords, want) {
			t.Errorf("rank %d coords %v, want %v", r.ID(), coords, want)
		}
		back, err := cc.CartRank(coords)
		if err != nil || back != cc.Rank() {
			t.Errorf("CartRank(Coords) = %d, %v", back, err)
		}
	})
}

func TestCartCreateErrors(t *testing.T) {
	runWorld(t, 16, Config{}, func(r *Rank) {
		if _, err := r.World().CartCreate(r, []int{3, 4}, nil, false); err == nil {
			t.Error("wrong-size grid accepted")
		}
		if _, err := r.World().CartCreate(r, []int{4, 4}, []bool{true}, false); err == nil {
			t.Error("short periodicity accepted")
		}
		if _, err := r.World().CartCreate(r, []int{16, 1}, nil, false); err == nil {
			t.Error("unit dimension accepted")
		}
	})
}

func TestCartShiftPeriodicity(t *testing.T) {
	runWorld(t, 16, Config{}, func(r *Rank) {
		cc, err := r.World().CartCreate(r, []int{4, 4}, []bool{false, true}, false)
		if err != nil {
			t.Fatal(err)
		}
		row, col := r.ID()/4, r.ID()%4
		src, dst := cc.Shift(0, 1) // non-periodic rows
		if row == 3 && dst != -1 {
			t.Errorf("rank %d: dst beyond non-periodic edge = %d", r.ID(), dst)
		}
		if row == 0 && src != -1 {
			t.Errorf("rank %d: src beyond non-periodic edge = %d", r.ID(), src)
		}
		if row < 3 && dst != r.ID()+4 {
			t.Errorf("rank %d: row dst = %d", r.ID(), dst)
		}
		src, dst = cc.Shift(1, 1) // periodic columns wrap
		if dst != row*4+(col+1)%4 {
			t.Errorf("rank %d: col dst = %d", r.ID(), dst)
		}
		if src != row*4+(col+3)%4 {
			t.Errorf("rank %d: col src = %d", r.ID(), src)
		}
	})
}

func TestCartNeighborExchange(t *testing.T) {
	runWorld(t, 16, Config{}, func(r *Rank) {
		cc, err := r.World().CartCreate(r, []int{4, 4}, []bool{true, true}, false)
		if err != nil {
			t.Fatal(err)
		}
		// Ring along dimension 1: everyone receives its left neighbour's rank.
		got, ok := cc.NeighborExchange(r, 1, F64Buf([]float64{float64(cc.Rank())}))
		if !ok {
			t.Errorf("rank %d: no source on periodic ring", r.ID())
			return
		}
		row, col := cc.Rank()/4, cc.Rank()%4
		want := float64(row*4 + (col+3)%4)
		if got.Data[0] != want {
			t.Errorf("rank %d received %v, want %v", r.ID(), got.Data[0], want)
		}
	})
}

func TestCartNeighborExchangeBoundary(t *testing.T) {
	runWorld(t, 16, Config{}, func(r *Rank) {
		cc, err := r.World().CartCreate(r, []int{4, 4}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cc.NeighborExchange(r, 0, F64Buf([]float64{1}))
		row := cc.Rank() / 4
		if row == 0 && ok {
			t.Errorf("rank %d on the edge received %v", r.ID(), got.Data)
		}
		if row > 0 && !ok {
			t.Errorf("rank %d missed its halo", r.ID())
		}
	})
}

// With reorder=true, grid neighbours must end up at least as close in the
// hierarchy (by ring cost of the grid walk) as without reordering.
func TestCartReorderImprovesLocality(t *testing.T) {
	// Bind ranks so the row-major grid walk is poor: interleave nodes.
	binding := make([]int, 16)
	for i := range binding {
		binding[i] = (i%2)*8 + i/2 // even ranks node 0, odd ranks node 1
	}
	var plainCost, reorderedCost int
	_, err := Run(testSpec16(), binding, Config{}, func(r *Rank) {
		plain, err := r.World().CartCreate(r, []int{2, 2, 4}, nil, false)
		if err != nil {
			t.Error(err)
			return
		}
		re, err := r.World().CartCreate(r, []int{2, 2, 4}, nil, true)
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID() == 0 {
			plainCost = gridWalkCost(r, plain)
			reorderedCost = gridWalkCost(r, re)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if reorderedCost > plainCost {
		t.Errorf("reorder made the grid walk worse: %d > %d", reorderedCost, plainCost)
	}
	if reorderedCost == 0 || plainCost == 0 {
		t.Fatalf("degenerate costs %d, %d", reorderedCost, plainCost)
	}
}

// gridWalkCost recomputes the ring cost of the comm's rank walk using the
// world binding (test helper; only sound on rank 0 after CartCreate).
func gridWalkCost(r *Rank, cc *CartComm) int {
	h := r.w.platform.Hierarchy()
	cores := make([]int, cc.Size())
	for i, w := range cc.group {
		cores[i] = r.w.binding[w]
	}
	total := 0
	for i := 0; i+1 < len(cores); i++ {
		total += h.CrossCost(cores[i], cores[i+1])
	}
	return total
}
