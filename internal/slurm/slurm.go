// Package slurm models the Slurm process-placement features the paper
// compares against and extends (§3.4): the --distribution option (block and
// cyclic policies at node and socket level, plus plane=n), and the
// --cpu-bind=map_cpu core lists generated from a hierarchy and an order by
// the paper's Algorithm 3, which generalizes --distribution to every
// hierarchy level including fake ones.
package slurm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/topology"
)

// Policy is a per-level distribution policy.
type Policy int

// Available policies. Plane is only valid at the node level.
const (
	Block Policy = iota
	Cyclic
	Plane
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case Plane:
		return "plane"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Distribution is a parsed --distribution value.
type Distribution struct {
	Node      Policy
	Socket    Policy
	PlaneSize int // used when Node == Plane
}

// ErrBadDistribution reports a --distribution value the binding cannot
// realize.
var ErrBadDistribution = errors.New("slurm: invalid --distribution value")

// String renders the value as passed to --distribution.
func (d Distribution) String() string {
	if d.Node == Plane {
		return fmt.Sprintf("plane=%d", d.PlaneSize)
	}
	return d.Node.String() + ":" + d.Socket.String()
}

// layout is the node-level shape a distribution fills: level 0 of the
// hierarchy is the node and level 1 the socket.
type layout struct {
	nodes, coresPerNode, sockets int
}

func nodeLayout(h topology.Hierarchy) (layout, error) {
	if h.Depth() < 2 {
		return layout{}, fmt.Errorf("slurm: need at least node and core levels, got %s", h)
	}
	ar := h.Arities()
	g := layout{nodes: ar[0], coresPerNode: h.Size() / ar[0], sockets: 1}
	if h.Depth() >= 3 {
		g.sockets = ar[1]
	}
	return g, nil
}

// check reports whether the binding can realize d.
func (d Distribution) check() error {
	switch {
	case d.Node != Block && d.Node != Cyclic && d.Node != Plane:
		return fmt.Errorf("%w: node policy %v", ErrBadDistribution, d.Node)
	case d.Node == Plane && d.PlaneSize <= 0:
		return fmt.Errorf("%w: plane size %d", ErrBadDistribution, d.PlaneSize)
	case d.Socket != Block && d.Socket != Cyclic:
		return fmt.Errorf("%w: socket policy %v", ErrBadDistribution, d.Socket)
	}
	return nil
}

// core returns the core rank r is bound to under d on layout g; d must
// pass check. The node policy picks the node and the index of r among the
// ranks that node receives; the socket policy maps that index to a core
// of the node. Under plane=p a node receives p consecutive ranks per
// round of the nodes.
func (d Distribution) core(g layout, r int) int {
	var node, idx int
	switch d.Node {
	case Block:
		node, idx = r/g.coresPerNode, r%g.coresPerNode
	case Cyclic:
		node, idx = r%g.nodes, r/g.nodes
	default: // Plane
		block := r / d.PlaneSize
		node, idx = block%g.nodes, block/g.nodes*d.PlaneSize+r%d.PlaneSize
	}
	if d.Socket == Cyclic {
		idx = idx%g.sockets*(g.coresPerNode/g.sockets) + idx/g.sockets
	}
	return node*g.coresPerNode + idx
}

// Binding computes the rank→core binding the distribution produces on a
// hierarchy whose level 0 is the node and level 1 the socket (deeper levels
// are filled in their initial order, as Slurm does). One rank per core.
func (d Distribution) Binding(h topology.Hierarchy) ([]int, error) {
	g, err := nodeLayout(h)
	if err != nil {
		return nil, err
	}
	if err := d.check(); err != nil {
		return nil, err
	}
	binding := make([]int, h.Size())
	for r := range binding {
		binding[r] = d.core(g, r)
	}
	return binding, nil
}

// DistributionForOrder searches the --distribution values able to reproduce
// the mapping of order sigma on hierarchy h (as in the Figure 2 captions).
// It returns the matching value and true, or zero and false when the order
// cannot be expressed with --distribution (e.g. order [1,0,2]). Candidates
// are tried in a fixed order — node:socket block/cyclic, then plane=p for
// every p dividing a node's cores — and each is compared rank by rank
// with the reordered world's binding, dropped at its first mismatch.
func DistributionForOrder(h topology.Hierarchy, sigma []int) (Distribution, bool) {
	g, err := nodeLayout(h)
	if err != nil {
		return Distribution{}, false
	}
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		return Distribution{}, false
	}
	want := ro.InverseTable() // binding of the reordered world
	matches := func(d Distribution) bool {
		for r, c := range want {
			if d.core(g, r) != c {
				return false
			}
		}
		return true
	}
	for _, np := range []Policy{Block, Cyclic} {
		for _, sp := range []Policy{Block, Cyclic} {
			if d := (Distribution{Node: np, Socket: sp}); matches(d) {
				return d, true
			}
		}
	}
	// Slurm's plane distribution fills within a node in block order; there
	// is no plane×cyclic combination.
	for plane := 1; plane <= g.coresPerNode; plane++ {
		if g.coresPerNode%plane != 0 {
			continue
		}
		if d := (Distribution{Node: Plane, Socket: Block, PlaneSize: plane}); matches(d) {
			return d, true
		}
	}
	return Distribution{}, false
}

// MapCPU implements the paper's Algorithm 3: given the hierarchy of one
// compute node, an order sigma, and the number n of cores to use, it
// returns the list of core physical IDs to pass to --cpu-bind=map_cpu.
// Position r of the list is the core that will host MPI rank r (per node).
func MapCPU(nodeHierarchy topology.Hierarchy, sigma []int, n int) ([]int, error) {
	h := nodeHierarchy.Arities()
	if err := mixedradix.CheckHierarchy(h); err != nil {
		return nil, err
	}
	if err := perm.Check(sigma); err != nil {
		return nil, err
	}
	if len(sigma) != len(h) {
		return nil, fmt.Errorf("slurm: order depth %d does not match hierarchy depth %d", len(sigma), len(h))
	}
	total := mixedradix.Size(h)
	if n <= 0 || n > total {
		return nil, fmt.Errorf("slurm: cannot select %d cores from %d", n, total)
	}
	l := make([]int, n)
	for c := 0; c < total; c++ {
		r := mixedradix.NewRank(h, c, sigma)
		if r < n {
			l[r] = c
		}
	}
	return l, nil
}

// FormatMapCPU renders the list as the value of --cpu-bind=map_cpu.
func FormatMapCPU(list []int) string {
	parts := make([]string, len(list))
	for i, c := range list {
		parts[i] = strconv.Itoa(c)
	}
	return "map_cpu:" + strings.Join(parts, ",")
}

// SelectionSet returns the sorted set of cores of a map_cpu list; two
// orders producing the same set place ranks on identical cores, differing
// only in rank numbering (§3.4 keeps such duplicates as distinct rank
// mappings).
func SelectionSet(list []int) []int {
	out := append([]int(nil), list...)
	sort.Ints(out)
	return out
}

// InducedHierarchy computes the hierarchy formed by a set of selected cores
// of the node (§3.4: "the hierarchy used for the second step has to match
// the hierarchy formed by the set of cores chosen in the first step").
// The selection must be structurally uniform: every used component of a
// level must contain the same number of used sub-components with identical
// sub-structure. Levels with a single used component are dropped. The
// returned arities may be empty when only one core is selected.
func InducedHierarchy(nodeHierarchy topology.Hierarchy, cores []int) ([]int, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("slurm: empty core selection")
	}
	seen := map[int]bool{}
	coords := make([][]int, 0, len(cores))
	for _, c := range cores {
		if c < 0 || c >= nodeHierarchy.Size() {
			return nil, fmt.Errorf("slurm: core %d out of range", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("slurm: duplicate core %d in selection", c)
		}
		seen[c] = true
		coords = append(coords, nodeHierarchy.Coordinates(c))
	}
	lcs, err := induced(coords, 0, nodeHierarchy.Depth())
	if err != nil {
		return nil, err
	}
	if len(lcs) == 0 {
		return nil, nil
	}
	out := make([]int, len(lcs))
	for i, lc := range lcs {
		out[i] = lc.count
	}
	return out, nil
}

// levelCount is one level of an induced hierarchy, remembering which
// original level it came from so that structurally different selections
// with coincidentally equal arities are still told apart.
type levelCount struct {
	level int
	count int
}

// induced recursively computes the used (level, arity) pairs of the
// selection.
func induced(coords [][]int, level, depth int) ([]levelCount, error) {
	if level == depth {
		return nil, nil
	}
	groups := map[int][][]int{}
	var keys []int
	for _, c := range coords {
		k := c[level]
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], c)
	}
	sort.Ints(keys)
	var sub []levelCount
	for i, k := range keys {
		g := groups[k]
		if len(g) != len(groups[keys[0]]) {
			return nil, fmt.Errorf("slurm: non-uniform selection at level %d", level)
		}
		s, err := induced(g, level+1, depth)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			sub = s
		} else if !equalLevelCounts(s, sub) {
			return nil, fmt.Errorf("slurm: non-uniform sub-structure at level %d", level)
		}
	}
	if len(keys) == 1 {
		return sub, nil
	}
	return append([]levelCount{{level: level, count: len(keys)}}, sub...), nil
}

func equalLevelCounts(a, b []levelCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
