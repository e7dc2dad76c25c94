// Package reorder implements the paper's first use case (§3.2): reordering
// the ranks of MPI_COMM_WORLD with the mixed-radix technique and building
// subcommunicators on top of the new numbering.
//
// Two deployment methods are modelled, matching the paper:
//
//   - CommSplit-style: every rank computes its reordered rank and passes it
//     as the key of an MPI_Comm_split with a single colour (SplitKey), then
//     derives subcommunicators from the reordered rank (SubcommColor).
//   - Rankfile-style: a rank→core placement file is generated so the
//     launcher binds the already-reordered ranks (Rankfile / ParseRankfile);
//     this is transparent to the application.
package reorder

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

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

// SubcommColor returns the colour used to split the reordered communicator
// into blocks of commSize consecutive reordered ranks (the quotient
// colouring of §3.2).
func (ro *Reordering) SubcommColor(newRank, commSize int) int {
	if commSize <= 0 {
		panic("reorder: non-positive communicator size")
	}
	return newRank / commSize
}

// SubcommRank returns the rank within the subcommunicator under the
// quotient colouring.
func (ro *Reordering) SubcommRank(newRank, commSize int) int {
	if commSize <= 0 {
		panic("reorder: non-positive communicator size")
	}
	return newRank % commSize
}

// NumSubcomms returns the number of subcommunicators of the given size;
// commSize must divide the world size.
func (ro *Reordering) NumSubcomms(commSize int) (int, error) {
	if commSize <= 0 || ro.Size()%commSize != 0 {
		return 0, fmt.Errorf("reorder: communicator size %d does not divide world size %d", commSize, ro.Size())
	}
	return ro.Size() / commSize, nil
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

// ParseRankfile reads a rankfile in the format emitted by Rankfile and
// returns the rank→core binding for a machine with coresPerNode cores per
// node.
func ParseRankfile(r io.Reader, coresPerNode int) ([]int, error) {
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("reorder: non-positive cores per node")
	}
	type entry struct{ rank, core int }
	var entries []entry
	maxRank := -1
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var rank, node, slot int
		if _, err := fmt.Sscanf(line, "rank %d=node%d slot=%d", &rank, &node, &slot); err != nil {
			return nil, fmt.Errorf("reorder: rankfile line %d %q: %w", lineNo, line, err)
		}
		if rank < 0 || node < 0 || slot < 0 || slot >= coresPerNode {
			return nil, fmt.Errorf("reorder: rankfile line %d out of range", lineNo)
		}
		entries = append(entries, entry{rank: rank, core: node*coresPerNode + slot})
		if rank > maxRank {
			maxRank = rank
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("reorder: empty rankfile")
	}
	binding := make([]int, maxRank+1)
	seen := make([]bool, maxRank+1)
	for _, e := range entries {
		if e.rank > maxRank {
			continue
		}
		if seen[e.rank] {
			return nil, fmt.Errorf("reorder: duplicate rank %d in rankfile", e.rank)
		}
		seen[e.rank] = true
		binding[e.rank] = e.core
	}
	for rank, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("reorder: rank %d missing from rankfile", rank)
		}
	}
	return binding, nil
}

// OrderName formats σ in the paper's hyphenated notation for labels.
func OrderName(sigma []int) string {
	parts := make([]string, len(sigma))
	for i, v := range sigma {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, "-")
}
