package commmatrix

import (
	"fmt"
	"testing"

	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/topology"
)

func TestMatrixBasics(t *testing.T) {
	m := New(4)
	m.Add(0, 1, 100)
	m.Add(1, 0, 50)
	m.Add(2, 2, 999) // self-traffic ignored
	if m.At(0, 1) != 150 || m.At(1, 0) != 150 {
		t.Errorf("At(0,1)=%v At(1,0)=%v", m.At(0, 1), m.At(1, 0))
	}
	if m.At(2, 2) != 0 {
		t.Error("self traffic recorded")
	}
	if m.Total() != 150 {
		t.Errorf("Total = %v", m.Total())
	}
	if m.Size() != 4 {
		t.Errorf("Size = %d", m.Size())
	}
}

func TestCost(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := New(16)
	m.Add(0, 1, 100) // same socket: cost 1
	m.Add(0, 4, 10)  // cross socket: cost 2
	m.Add(0, 8, 1)   // cross node: cost 3
	identity := make([]int, 16)
	for i := range identity {
		identity[i] = i
	}
	c, err := Cost(m, h, identity)
	if err != nil {
		t.Fatal(err)
	}
	if c != 100*1+10*2+1*3 {
		t.Errorf("Cost = %v, want 123", c)
	}
	if _, err := Cost(m, h, identity[:3]); err == nil {
		t.Error("short placement accepted")
	}
}

// bestOrder is the brute-force reading of the paper's "communication
// matrices help determine the mapping, our technique sets it up": Cost of
// every mixed-radix order's placement (application rank i runs on the core
// holding reordered rank i — InverseTable[i]), lowest first. The served
// implementation is procmap.BestOrder; this loop checks Cost and the
// collector against the orders the paper names.
func bestOrder(t *testing.T, m *Matrix, h topology.Hierarchy) ([]int, float64) {
	t.Helper()
	var best []int
	bestCost := -1.0
	for _, sigma := range perm.All(h.Depth()) {
		ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := Cost(m, h, ro.InverseTable())
		if err != nil {
			t.Fatal(err)
		}
		if bestCost < 0 || cost < bestCost {
			bestCost, best = cost, sigma
		}
	}
	return best, bestCost
}

// The best order must be a packed one for block-communicating workloads.
func TestBestOrderBlockWorkload(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := New(16)
	for k := 0; k < 4; k++ {
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				m.Add(4*k+a, 4*k+b, 100)
			}
		}
	}
	sigma, cost := bestOrder(t, m, h)
	// Blocks of 4 consecutive ranks fit one socket under the identity
	// ([2,1,0]) or plane ([2,0,1]) orders: all pairs cost 1.
	want := 4 * 6 * 100.0
	if cost != want {
		t.Errorf("best order %v cost %v, want %v", sigma, cost, want)
	}
	name := perm.Format(sigma)
	if name != "2-1-0" && name != "2-0-1" {
		t.Errorf("best order = %s, want a packed order", name)
	}
}

// For an interleaved workload (stride-4 blocks) the cyclic order must win.
func TestBestOrderCyclicWorkload(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := New(16)
	for k := 0; k < 4; k++ {
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				m.Add(k+4*a, k+4*b, 100)
			}
		}
	}
	sigma, cost := bestOrder(t, m, h)
	// Stride-4 blocks are exactly what a fully cyclic enumeration packs:
	// under [0,1,2]-style orders, ranks {k, k+4, k+8, k+12} share a socket.
	if cost != 4*6*100.0 {
		t.Errorf("best order %v cost %v, want %v", sigma, cost, 4*6*100.0)
	}
}

func TestSizeMismatches(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	m := New(8)
	for _, n := range []int{0, 7, 9, 16} {
		if _, err := Cost(m, h, make([]int, n)); err == nil {
			t.Errorf("Cost accepted a %d-rank placement for 8 ranks", n)
		}
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

// Cost evaluates a placement (rank → core) against the hierarchy the
// brute-force way: the sum over pairs of volume × crossing cost (§3.3's
// cost), the objective procmap.Cost computes from the sparse edges.
func Cost(m *Matrix, h topology.Hierarchy, placement []int) (float64, error) {
	if len(placement) != m.n {
		return 0, fmt.Errorf("commmatrix: placement has %d ranks, matrix %d", len(placement), m.n)
	}
	var total float64
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			v := m.vol[i*m.n+j]
			if v == 0 {
				continue
			}
			total += v * float64(h.CrossCost(placement[i], placement[j]))
		}
	}
	return total, nil
}
