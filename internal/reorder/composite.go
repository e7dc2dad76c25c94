// Composite reorderings: the paper's closing outlook (§5) asks for the
// algorithm to become "more general and dynamic: being able to follow an
// order for a set of communicators and another order for remaining
// communicators and to have subcommunicators with different sizes". This
// file provides both generalizations:
//
//   - Composite splits the machine at the outermost level into contiguous
//     node groups and reorders each group with its own order — e.g. the
//     nodes running a latency-bound solver packed, the nodes running an
//     I/O pipeline spread.
//   - VariableSubcomms colours a reordered world into subcommunicators of
//     caller-chosen (possibly different) sizes.
package reorder

import (
	"fmt"

	"repro/internal/topology"
)

// Segment is one part of a composite reordering: the sub-machine made of
// Nodes consecutive outermost-level components, reordered by Order (whose
// depth must match the segment's sub-hierarchy: the original depth when
// Nodes > 1, one level less when Nodes == 1).
type Segment struct {
	Nodes int
	Order []int
}

// Composite reorders a machine piecewise: the hierarchy's outermost level
// is split into consecutive segments, and each segment's cores are
// renumbered with its own order. Reordered ranks remain globally unique:
// segment s's ranks occupy [start, start+size) where start is the total
// size of the preceding segments, so a composite reordering is still a
// bijection on the world (verified by tests).
type Composite struct {
	h        topology.Hierarchy
	segments []Segment
	table    []int // old rank -> new rank
	inverse  []int
}

// NewComposite validates the segments (their node counts must sum to the
// hierarchy's outermost arity) and precomputes the mapping.
func NewComposite(h topology.Hierarchy, segments []Segment) (*Composite, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("reorder: no segments")
	}
	totalNodes := 0
	for _, s := range segments {
		if s.Nodes <= 0 {
			return nil, fmt.Errorf("reorder: segment with %d nodes", s.Nodes)
		}
		totalNodes += s.Nodes
	}
	ar := h.Arities()
	if totalNodes != ar[0] {
		return nil, fmt.Errorf("reorder: segments cover %d nodes, machine has %d", totalNodes, ar[0])
	}
	coresPerNode := h.Size() / ar[0]
	c := &Composite{
		h:        h,
		segments: append([]Segment(nil), segments...),
		table:    make([]int, h.Size()),
		inverse:  make([]int, h.Size()),
	}
	start := 0 // first core (and first reordered rank) of the segment
	for _, seg := range segments {
		sub, err := segmentHierarchy(h, seg.Nodes)
		if err != nil {
			return nil, err
		}
		ro, err := New(sub, seg.Order)
		if err != nil {
			return nil, fmt.Errorf("reorder: segment of %d nodes: %w", seg.Nodes, err)
		}
		size := seg.Nodes * coresPerNode
		for local := 0; local < size; local++ {
			c.table[start+local] = start + ro.NewRank(local)
			c.inverse[start+local] = start + ro.OldRank(local)
		}
		start += size
	}
	return c, nil
}

// segmentHierarchy returns the sub-hierarchy of a segment: nodes × the
// per-node levels, dropping the node level entirely for single-node
// segments (a level of arity 1 is not a valid radix).
func segmentHierarchy(h topology.Hierarchy, nodes int) (topology.Hierarchy, error) {
	if nodes == 1 {
		return h.Sub(1, h.Depth())
	}
	perNode, err := h.Sub(1, h.Depth())
	if err != nil {
		return topology.Hierarchy{}, err
	}
	return perNode.Prepend(topology.Level{Name: h.Level(0).Name, Arity: nodes})
}

// Hierarchy returns the machine hierarchy.
func (c *Composite) Hierarchy() topology.Hierarchy { return c.h }

// Size returns the number of processes.
func (c *Composite) Size() int { return len(c.table) }

// NewRank returns the reordered rank of an original world rank.
func (c *Composite) NewRank(old int) int { return c.table[old] }

// OldRank returns the original rank holding a reordered rank.
func (c *Composite) OldRank(new int) int { return c.inverse[new] }

// Binding returns the rank→core binding of the composite reordering.
func (c *Composite) Binding() []int { return append([]int(nil), c.inverse...) }

// VariableSubcomms assigns reordered ranks to subcommunicators of the
// given sizes (which must sum to n): consecutive reordered ranks fill the
// communicators in order. It returns color[newRank] and key[newRank] —
// the MPI_Comm_split arguments realizing §5's "subcommunicators with
// different sizes".
func VariableSubcomms(n int, sizes []int) (color, key []int, err error) {
	total := 0
	for i, s := range sizes {
		if s <= 0 {
			return nil, nil, fmt.Errorf("reorder: subcommunicator %d has size %d", i, s)
		}
		total += s
	}
	if total != n {
		return nil, nil, fmt.Errorf("reorder: subcommunicator sizes sum to %d, world has %d", total, n)
	}
	color = make([]int, n)
	key = make([]int, n)
	rank := 0
	for c, s := range sizes {
		for k := 0; k < s; k++ {
			color[rank] = c
			key[rank] = k
			rank++
		}
	}
	return color, key, nil
}
