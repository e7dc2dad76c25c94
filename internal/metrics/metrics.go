// Package metrics implements the two order-characterization metrics of
// §3.3: the ring cost and the percentages of process pairs per level. Both
// describe how a communicator's processes are placed on the machine: the
// ring cost reflects the rank order inside the communicator, the pair
// percentages how far the communicator spreads over the hierarchy. The two
// are independent — the ring cost can distinguish two orders with the same
// pair percentages.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mixedradix"
	"repro/internal/topology"
)

// Placement is the mapping of a communicator onto cores: Cores[i] is the
// core (identified by its rank in the hierarchy's initial enumeration) that
// holds communicator rank i.
type Placement struct {
	H     topology.Hierarchy
	Cores []int
}

// Comm returns the placement of the idx-th subcommunicator (block
// colouring: reordered ranks idx·commSize … (idx+1)·commSize-1).
func Comm(h topology.Hierarchy, sigma []int, commSize, idx int) (Placement, error) {
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		return Placement{}, err
	}
	n := h.Size()
	if commSize <= 0 || n%commSize != 0 {
		return Placement{}, fmt.Errorf("metrics: communicator size %d does not divide %d", commSize, n)
	}
	if idx < 0 || idx >= n/commSize {
		return Placement{}, fmt.Errorf("metrics: communicator index %d out of range [0, %d)", idx, n/commSize)
	}
	cores := make([]int, commSize)
	ro.InverseRangeInto(cores, idx*commSize)
	return Placement{H: h, Cores: cores}, nil
}

// RingCost computes the §3.3 ring cost of the placement: the sum over
// consecutive communicator ranks (0→1, 1→2, …, n-2→n-1) of the crossing
// cost between the cores that hold them, where a hop inside the same lowest
// hierarchy level costs 1 and each additional level crossed adds 1.
func RingCost(p Placement) int {
	total := 0
	for i := 0; i+1 < len(p.Cores); i++ {
		total += p.H.CrossCost(p.Cores[i], p.Cores[i+1])
	}
	return total
}

// PairsPerLevel returns, for each hierarchy level from the innermost (index
// 0 of the result) to the outermost, the percentage of unordered process
// pairs of the communicator whose communication crosses up to that level
// and no further: element 0 counts pairs fitting inside one lowest-level
// domain, element j pairs whose first differing coordinate is j levels
// above the innermost. The percentages sum to 100 for communicators with
// at least one pair.
func PairsPerLevel(p Placement) []float64 {
	k := p.H.Depth()
	counts := make([]int, k)
	n := len(p.Cores)
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := p.H.FirstDiffLevel(p.Cores[i], p.Cores[j])
			if d == k {
				continue // same core (only possible with oversubscription)
			}
			counts[k-1-d]++
			pairs++
		}
	}
	out := make([]float64, k)
	if pairs == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = 100 * float64(c) / float64(pairs)
	}
	return out
}

// Characterization bundles both metrics for one order, as printed in the
// figure legends: "order (ring cost - pct, pct, …)".
type Characterization struct {
	Order    []int
	RingCost int
	Pairs    []float64
}

// Characterize computes the legend entry of an order for the first
// subcommunicator of the given size. It uses the closed-form kernels of
// fastpath.go — O(k²) in the hierarchy depth, no reorder table — and is
// proven equal to the table-based reference (the tests' CharacterizeTable)
// by differential test.
func Characterize(h topology.Hierarchy, sigma []int, commSize int) (Characterization, error) {
	var arBuf [16]int
	ar := arBuf[:0]
	for i := range h.Depth() {
		ar = append(ar, h.Level(i).Arity)
	}
	if err := mixedradix.CheckOrder(ar, sigma); err != nil {
		return Characterization{}, err
	}
	n := h.Size()
	if commSize <= 0 || commSize > n {
		return Characterization{}, fmt.Errorf("metrics: communicator size %d out of range (0, %d]", commSize, n)
	}
	k := len(ar)
	ring := ringCostClosed(ar, sigma, commSize)
	var buf [16]int64
	counts := scratch(&buf, k)
	PairCountsPerLevelInto(counts, ar, sigma, commSize)
	pairs := make([]float64, k)
	if total := int64(commSize) * int64(commSize-1) / 2; total > 0 {
		for j := range pairs {
			pairs[j] = 100 * float64(counts[j]) / float64(total)
		}
	}
	return Characterization{
		Order:    append([]int(nil), sigma...),
		RingCost: ring,
		Pairs:    pairs,
	}, nil
}

// String renders the characterization in the figure-legend format, e.g.
// "0-1-2-3 (60 - 0.0, 0.0, 0.0, 100.0)".
func (c Characterization) String() string {
	var b strings.Builder
	for i, v := range c.Order {
		if i > 0 {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	fmt.Fprintf(&b, " (%d - ", c.RingCost)
	for i, v := range c.Pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.1f", v)
	}
	b.WriteString(")")
	return b.String()
}

// SpreadScore summarizes the pair percentages into a single number in
// [0, 1]: 0 when every pair fits in the lowest level (fully packed), 1 when
// every pair crosses the whole hierarchy (fully spread). It is the
// pair-weighted mean of levels crossed, normalized by depth-1.
func (c Characterization) SpreadScore() float64 {
	k := len(c.Pairs)
	if k <= 1 {
		return 0
	}
	var mean float64
	for j, pct := range c.Pairs {
		mean += float64(j) * pct / 100
	}
	return mean / float64(k-1)
}

// SamePairs reports whether two characterizations place their communicator
// over the hierarchy identically (same percentages up to floating noise).
// Orders with the same pair percentages but different ring costs map the
// communicator to an equivalent set of cores while numbering ranks
// differently (§3.3, orders [0,1,2] vs [1,0,2]).
func (c Characterization) SamePairs(o Characterization) bool {
	if len(c.Pairs) != len(o.Pairs) {
		return false
	}
	for i := range c.Pairs {
		if math.Abs(c.Pairs[i]-o.Pairs[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// EquivalenceClasses groups the given orders by their (ring cost, pair
// percentages) signature for the first subcommunicator of size commSize.
// Orders in the same class are expected to exhibit the same performance in
// the absence of inter-communicator communication (§3.3). Classes preserve
// the input order of first appearance.
func EquivalenceClasses(h topology.Hierarchy, orders [][]int, commSize int) ([][]Characterization, error) {
	var classes [][]Characterization
	for _, sigma := range orders {
		ch, err := Characterize(h, sigma, commSize)
		if err != nil {
			return nil, err
		}
		placed := false
		for i, cls := range classes {
			if cls[0].RingCost == ch.RingCost && cls[0].SamePairs(ch) {
				classes[i] = append(classes[i], ch)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []Characterization{ch})
		}
	}
	return classes, nil
}
