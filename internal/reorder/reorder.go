// Package reorder implements the paper's first use case (§3.2): reordering
// the ranks of MPI_COMM_WORLD with the mixed-radix technique and building
// subcommunicators on top of the new numbering.
//
// Two deployment methods are modelled, matching the paper:
//
//   - CommSplit-style: every rank computes its reordered rank and passes it
//     as the key of an MPI_Comm_split with a single colour (SplitKey), then
//     derives subcommunicators as blocks of consecutive reordered ranks.
//   - Rankfile-style: a rank→core placement file is generated so the
//     launcher binds the already-reordered ranks (Rankfile);
//     this is transparent to the application.
package reorder

import (
	"io"
	"strconv"

	"repro/internal/mixedradix"
	"repro/internal/topology"
)

// Reordering binds a hierarchy and an order σ, precomputing both rank
// mappings.
type Reordering struct {
	h     topology.Hierarchy
	sigma []int
	// table[old] = new, inverse[new] = old.
	table   []int
	inverse []int
}

// New validates the inputs and precomputes the mapping. The hierarchy's
// size must equal the number of processes enumerated.
func New(h topology.Hierarchy, sigma []int) (*Reordering, error) {
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		return nil, err
	}
	tab, inv := make([]int, ro.Size()), make([]int, ro.Size())
	ro.TableInto(tab)
	ro.InverseTableInto(inv)
	return &Reordering{
		h:       h,
		sigma:   append([]int(nil), sigma...),
		table:   tab,
		inverse: inv,
	}, nil
}

// Hierarchy returns the hierarchy the reordering was built for.
func (ro *Reordering) Hierarchy() topology.Hierarchy { return ro.h }

// Order returns a copy of σ.
func (ro *Reordering) Order() []int { return append([]int(nil), ro.sigma...) }

// Size returns the number of processes.
func (ro *Reordering) Size() int { return len(ro.table) }

// NewRank returns the reordered rank of an original world rank — the value
// the paper passes as the key of MPI_Comm_split.
func (ro *Reordering) NewRank(old int) int { return ro.table[old] }

// SplitKey is an alias of NewRank named after its use in the CommSplit
// deployment method.
func (ro *Reordering) SplitKey(old int) int { return ro.table[old] }

// OldRank returns the original rank (hence the core, under the initial
// one-rank-per-core enumeration) holding a reordered rank.
func (ro *Reordering) OldRank(new int) int { return ro.inverse[new] }

// Binding returns the rank→core binding of the reordered world when the
// initial enumeration binds rank i to core i: core of new rank n is
// OldRank(n). This is the binding handed to the simulated MPI runtime.
func (ro *Reordering) Binding() []int {
	return append([]int(nil), ro.inverse...)
}

// Rankfile writes an Open MPI-style rankfile describing the reordered
// placement: line i binds (reordered) rank i to the core holding original
// rank i's slot.
//
//	rank 0=node0 slot=0
//	rank 1=node0 slot=1
//
// Node and slot are derived from the hierarchy: the node is the outermost
// coordinate, the slot the core index within the node. The lines, each
// under 80 bytes, go out in writes of at most rankfileChunk bytes.
func (ro *Reordering) Rankfile(w io.Writer) error {
	coresPerNode := ro.Size() / ro.h.Level(0).Arity
	buf := make([]byte, 0, rankfileChunk)
	for newRank, core := range ro.inverse {
		buf = strconv.AppendInt(append(buf, "rank "...), int64(newRank), 10)
		buf = strconv.AppendInt(append(buf, "=node"...), int64(core/coresPerNode), 10)
		buf = strconv.AppendInt(append(buf, " slot="...), int64(core%coresPerNode), 10)
		buf = append(buf, '\n')
		if len(buf) > rankfileChunk-80 || newRank == len(ro.inverse)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

const rankfileChunk = 32 << 10
