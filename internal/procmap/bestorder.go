// The mixed-radix baseline: evaluate all k! digit orders of the hierarchy
// against the matrix under the weighted objective and return the winner.
// This is both the yardstick matrix-aware mappings must beat and the
// breaker-open fallback answer of the served endpoint — an order-induced
// placement is always valid, cheap to compute at serving depths (k ≤ 6 ⇒
// ≤ 720 orders), and never worse than the default enumeration order.

package procmap

import (
	"fmt"

	"repro/internal/commmatrix"
	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/topology"
)

// BestOrder evaluates every mixed-radix order of the hierarchy and returns
// the order with the lowest weighted cost, the placement it induces
// (rank i runs on core InverseTable[i]), that cost, and the number of
// orders actually evaluated — callers report the engine's own count
// instead of recomputing k! (which overflows int at depth ≥ 21/13 on
// 64/32-bit). Nil weights select DefaultWeights. Ties resolve to the
// first order perm.All yields — Heap's order, which is not lexicographic.
func BestOrder(m *commmatrix.Matrix, h topology.Hierarchy, weights []float64) (sigma []int, placement []int, cost float64, evaluated int64, err error) {
	return bestOrder(m.Size(), m.Sparse().Edges, h, weights)
}

// BestOrder is the package-level BestOrder on traffic already indexed.
func (g *Graph) BestOrder(h topology.Hierarchy, weights []float64) (sigma []int, placement []int, cost float64, evaluated int64, err error) {
	return bestOrder(g.Ranks(), g.edges, h, weights)
}

func bestOrder(ranks int, edges []commmatrix.Edge, h topology.Hierarchy, weights []float64) (sigma []int, placement []int, cost float64, evaluated int64, err error) {
	if ranks != h.Size() {
		return nil, nil, 0, 0, fmt.Errorf("procmap: %d ranks for a machine with %d cores", ranks, h.Size())
	}
	cm, err := newCostModel(h, weights)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	// One Reorderer and one table walk all the orders.
	ro, err := mixedradix.NewReorderer(h.Arities(), mixedradix.IdentityOrder(h.Depth()))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	inv := make([]int, ranks)
	cost = -1
	for _, s := range perm.All(h.Depth()) {
		if err := ro.Reset(s); err != nil {
			return nil, nil, 0, 0, err
		}
		ro.InverseTableInto(inv)
		evaluated++
		// Strict < keeps the first of tied orders in perm.All's Heap order.
		if c := cm.cost(edges, inv); cost < 0 || c < cost {
			cost = c
			sigma = append(sigma[:0], s...)
			placement = append(placement[:0], inv...)
		}
	}
	return sigma, placement, cost, evaluated, nil
}
