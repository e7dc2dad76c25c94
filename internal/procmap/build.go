// The greedy bottom-up construction: starting from singleton process
// groups, repeatedly merge the heaviest-communicating groups into
// super-groups of the current level's arity — innermost level first — so
// chatty processes land in the same lowest domain, then the same next
// domain, and so on (the TreeMatch family's strategy, run bottom-up over
// the paper's explicit per-level arities). Every tie breaks toward the
// lowest group index, making the construction fully deterministic.

package procmap

import (
	"fmt"

	"repro/internal/commmatrix"
	"repro/internal/topology"
)

// Build computes the greedy bottom-up placement (rank → core). The matrix
// size must equal the hierarchy's core count.
func Build(m *commmatrix.Matrix, h topology.Hierarchy) ([]int, error) {
	return NewGraph(m.Sparse()).build(h)
}

// build walks adjacency rows only: a pair with no traffic would add an
// exact zero to the sums below, which changes no bit of them, so skipping
// it keeps every sum's operand order and the result of the dense scan.
func (gr *Graph) build(h topology.Hierarchy) ([]int, error) {
	n := gr.Ranks()
	if n != h.Size() {
		return nil, fmt.Errorf("procmap: %d ranks for a machine with %d cores", n, h.Size())
	}
	ar := h.Arities()
	// groups[i] is the ordered member-rank list of group i; rows[i] is its
	// volume to every other group of the current level it talks to, in
	// ascending group order.
	groups := make([][]int, n)
	ranks := make([]int, n)
	for i := range groups {
		ranks[i] = i
		groups[i] = ranks[i : i+1]
	}
	rows := gr.adj
	g := n
	for l := len(ar) - 1; l >= 0; l-- {
		k := ar[l]
		ng := g / k
		used := make([]bool, g)
		superOf := make([]int, g)
		// tot[i] is group i's remaining volume to other unused groups — the
		// seed-selection score, maintained incrementally as groups are taken.
		tot := make([]float64, g)
		for i, row := range rows {
			for _, nb := range row {
				tot[i] += nb.vol
			}
		}
		take := func(i int) {
			used[i] = true
			for _, nb := range rows[i] {
				if !used[nb.to] {
					tot[nb.to] -= nb.vol
				}
			}
		}
		newGroups := make([][]int, 0, ng)
		gain := make([]float64, g) // volume from each unused group to the growing super
		for s := 0; s < ng; s++ {
			// Seed: the unused group with the most remaining traffic.
			seed := -1
			for i := 0; i < g; i++ {
				if used[i] {
					continue
				}
				if seed < 0 || tot[i] > tot[seed] {
					seed = i
				}
			}
			take(seed)
			members := append(make([]int, 0, k), seed)
			clear(gain)
			for _, nb := range rows[seed] {
				gain[nb.to] = nb.vol
			}
			for len(members) < k {
				pick := -1
				for i := 0; i < g; i++ {
					if used[i] {
						continue
					}
					if pick < 0 || gain[i] > gain[pick] {
						pick = i
					}
				}
				take(pick)
				members = append(members, pick)
				for _, nb := range rows[pick] {
					if !used[nb.to] {
						gain[nb.to] += nb.vol
					}
				}
			}
			merged := make([]int, 0, k*len(groups[seed]))
			for _, i := range members {
				superOf[i] = s
				merged = append(merged, groups[i]...)
			}
			newGroups = append(newGroups, merged)
		}
		// Coarsen the volumes onto the supers: accumulate densely, each pair
		// once in (i, j) order, then read the nonzero cells back as rows.
		nc := make([]float64, ng*ng)
		for i, row := range rows {
			for _, nb := range row {
				si, sj := superOf[i], superOf[nb.to]
				if nb.to < i || si == sj {
					continue
				}
				nc[si*ng+sj] += nb.vol
				nc[sj*ng+si] += nb.vol
			}
		}
		nnz := 0
		for _, v := range nc {
			if v != 0 {
				nnz++
			}
		}
		flat := make([]neighbor, 0, nnz)
		rows = make([][]neighbor, ng)
		for si := range rows {
			start := len(flat)
			for sj, v := range nc[si*ng : (si+1)*ng] {
				if v != 0 {
					flat = append(flat, neighbor{sj, v})
				}
			}
			rows[si] = flat[start:len(flat):len(flat)]
		}
		groups, g = newGroups, ng
	}
	// One group remains; its member order enumerates the cores. Because
	// each merge keeps deeper groups contiguous, positions nest correctly
	// into the hierarchy's domains.
	placement := make([]int, n)
	for pos, r := range groups[0] {
		placement[r] = pos
	}
	return placement, nil
}
