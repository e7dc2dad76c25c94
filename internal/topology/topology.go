// Package topology models the deeply hierarchical machines the paper
// targets: a hierarchy is a list of levels, outermost first, each stating
// how many children every component of that level has — e.g. ⟦2, 2, 4⟧ for
// 2 nodes × 2 sockets × 4 cores (Figure 1).
//
// The package provides parsing and formatting of hierarchy descriptions,
// coordinate/rank conversion, fake-level manipulation (§3.2: "a socket
// containing 16 cores can be faked as containing 2 components with 8 cores
// each"), level naming, and the relative-position queries (first differing
// level, crossing cost) that the ordering metrics of §3.3 are built on.
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/mixedradix"
)

// ErrBadLevel reports an invalid level description.
var ErrBadLevel = errors.New("topology: invalid level")

// ErrTooLarge reports a hierarchy whose core count does not fit an int.
var ErrTooLarge = errors.New("topology: hierarchy size overflows int")

// Common level names, outermost to innermost, used when a hierarchy is
// built without explicit names.
var defaultNames = []string{"node", "socket", "numa", "l3", "core"}

// Level is one stage of a hierarchy: every component of the enclosing level
// contains Arity components of this level.
type Level struct {
	Name  string
	Arity int
}

// Hierarchy is an ordered list of levels, outermost first. The zero value
// is invalid; use New or Parse.
type Hierarchy struct {
	levels []Level
	size   int // Π arities, set by the constructors
}

// New builds a hierarchy from arities, outermost first, assigning default
// level names (the innermost level is always "core"; preceding levels take
// names from node, socket, numa, l3 as depth allows, falling back to
// "level<i>" for very deep hierarchies).
func New(arities ...int) (Hierarchy, error) {
	n, err := checkArities(arities)
	if err != nil {
		return Hierarchy{}, err
	}
	levels := make([]Level, len(arities))
	for i, a := range arities {
		levels[i] = Level{Name: defaultName(i, len(arities)), Arity: a}
	}
	return Hierarchy{levels: levels, size: n}, nil
}

// MustNew is New panicking on error, for tests and literals.
func MustNew(arities ...int) Hierarchy {
	h, err := New(arities...)
	if err != nil {
		panic(err)
	}
	return h
}

// NewNamed builds a hierarchy from explicit levels.
func NewNamed(levels ...Level) (Hierarchy, error) {
	arities := make([]int, len(levels))
	for i, l := range levels {
		arities[i] = l.Arity
		if l.Name == "" {
			return Hierarchy{}, fmt.Errorf("%w: level %d has empty name", ErrBadLevel, i)
		}
	}
	n, err := checkArities(arities)
	if err != nil {
		return Hierarchy{}, err
	}
	return Hierarchy{levels: append([]Level(nil), levels...), size: n}, nil
}

// checkArities is the one gate every constructor passes: valid radices
// whose product fits an int, so Size and everything that multiplies the
// levels out (mixedradix.Size, the reorder tables) cannot overflow later.
// It returns that product.
func checkArities(arities []int) (int, error) {
	if err := mixedradix.CheckHierarchy(arities); err != nil {
		return 0, err
	}
	n := 1
	for _, a := range arities {
		if n > math.MaxInt/a {
			return 0, fmt.Errorf("%w: %v", ErrTooLarge, arities)
		}
		n *= a
	}
	return n, nil
}

func defaultName(i, depth int) string {
	if i == depth-1 {
		return "core"
	}
	if i < len(defaultNames)-1 {
		return defaultNames[i]
	}
	return "level" + strconv.Itoa(i)
}

// Parse reads a hierarchy description. Accepted forms:
//
//	"2x2x4"            arities separated by x
//	"[2, 2, 4]"        bracketed list
//	"2,2,4"            comma list
//	"node:2,socket:2,core:4"  named levels
func Parse(s string) (Hierarchy, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "[")
	t = strings.TrimSuffix(t, "]")
	if t == "" {
		return Hierarchy{}, fmt.Errorf("%w: empty hierarchy %q", ErrBadLevel, s)
	}
	sep := ","
	if strings.Contains(t, "x") && !strings.Contains(t, ",") {
		sep = "x"
	}
	fields := strings.Split(t, sep)
	named := strings.Contains(t, ":")
	if named {
		levels := make([]Level, 0, len(fields))
		for _, f := range fields {
			parts := strings.SplitN(strings.TrimSpace(f), ":", 2)
			if len(parts) != 2 {
				return Hierarchy{}, fmt.Errorf("%w: %q in %q", ErrBadLevel, f, s)
			}
			a, err := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err != nil {
				return Hierarchy{}, fmt.Errorf("%w: arity %q in %q: %v", ErrBadLevel, parts[1], s, err)
			}
			levels = append(levels, Level{Name: strings.TrimSpace(parts[0]), Arity: a})
		}
		return NewNamed(levels...)
	}
	arities := make([]int, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			return Hierarchy{}, fmt.Errorf("%w: empty arity in %q", ErrBadLevel, s)
		}
		a, err := strconv.Atoi(f)
		if err != nil {
			return Hierarchy{}, fmt.Errorf("%w: arity %q in %q: %v", ErrBadLevel, f, s, err)
		}
		arities = append(arities, a)
	}
	return New(arities...)
}

// MustParse is Parse panicking on error.
func MustParse(s string) Hierarchy {
	h, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return h
}

// Depth returns the number of levels.
func (h Hierarchy) Depth() int { return len(h.levels) }

// Size returns the total number of cores (leaf components) enumerated,
// computed once by the constructor that rejected its overflow; the zero
// Hierarchy (size 0), an empty product, enumerates 1.
func (h Hierarchy) Size() int { return max(h.size, 1) }

// Arities returns a copy of the level arities, outermost first. This is the
// mixed-radix base of the paper.
func (h Hierarchy) Arities() []int {
	a := make([]int, len(h.levels))
	for i, l := range h.levels {
		a[i] = l.Arity
	}
	return a
}

// Levels returns a copy of the levels.
func (h Hierarchy) Levels() []Level { return append([]Level(nil), h.levels...) }

// Level returns level i (0 = outermost).
func (h Hierarchy) Level(i int) Level { return h.levels[i] }

// Names returns the level names, outermost first.
func (h Hierarchy) Names() []string {
	n := make([]string, len(h.levels))
	for i, l := range h.levels {
		n[i] = l.Name
	}
	return n
}

// String renders the hierarchy in the paper's ⟦…⟧ notation.
func (h Hierarchy) String() string {
	var b strings.Builder
	b.WriteString("⟦")
	for i, l := range h.levels {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(l.Arity))
	}
	b.WriteString("⟧")
	return b.String()
}

// Coordinates returns the hierarchy coordinates of a core (or of the rank
// initially enumerated onto it), outermost level first — Algorithm 1.
func (h Hierarchy) Coordinates(rank int) []int {
	return mixedradix.Decompose(h.Arities(), rank)
}

// Rank is the inverse of Coordinates for the initial enumeration.
func (h Hierarchy) Rank(coords []int) int {
	return mixedradix.Compose(h.Arities(), coords, mixedradix.IdentityOrder(h.Depth()))
}

// FirstDiffLevel returns the outermost level index at which the coordinates
// of two ranks differ, or Depth() if the ranks are equal. A result of
// Depth()-1 means the two ranks share everything but the core — they sit in
// the same lowest level of the hierarchy.
func (h Hierarchy) FirstDiffLevel(a, b int) int {
	if a == b {
		return h.Depth()
	}
	// Walk from the outermost level: the leading mixed-radix digits of a and
	// b are their quotients by the size of the suffix.
	suffix := h.Size()
	for i, l := range h.levels {
		suffix /= l.Arity
		if a/suffix != b/suffix {
			return i
		}
		a %= suffix
		b %= suffix
	}
	return h.Depth()
}

// CrossCost returns the communication cost between two ranks as defined in
// §3.3: 1 when both sit inside the same lowest hierarchy level, plus 1 for
// each additional level the communication has to cross. Equal ranks cost 0.
func (h Hierarchy) CrossCost(a, b int) int {
	d := h.FirstDiffLevel(a, b)
	if d == h.Depth() {
		return 0
	}
	return h.Depth() - d
}

// LevelOracle answers FirstDiffLevel in O(1). Label[c] is core c's
// mixed-radix digit string packed outermost digit first, bits.Len(arity−1)
// bits per level (Predari et al.'s bit labels, on the paper's own digits),
// so the highest set bit of Label[a]^Label[b] lies in the field of the
// outermost digit the two cores differ in; LevelOfLen maps bits.Len64 of
// that XOR to the level, and 0 — equal cores — to Depth(). A caller with a
// per-level table of its own composes it with LevelOfLen once.
type LevelOracle struct {
	Label      []uint64
	LevelOfLen [65]uint8
}

// LevelOracle builds the label table in O(Size) time without a division.
// Every arity is ≥ 2, so the digit fields total fewer than 2·log₂(Size)
// bits: any hierarchy whose Size labels fit in memory fits 64-bit labels,
// and one that does not is a caller's bug.
func (h Hierarchy) LevelOracle() *LevelOracle {
	width := 0
	for _, l := range h.levels {
		width += bits.Len(uint(l.Arity - 1))
	}
	if width > 64 {
		panic(fmt.Sprintf("topology: %s needs %d label bits", h, width))
	}
	o := &LevelOracle{Label: make([]uint64, h.Size())}
	o.LevelOfLen[0] = uint8(len(h.levels))
	n := 1 // labels of the levels above i, in Label[:n]
	for i, l := range h.levels {
		w := bits.Len(uint(l.Arity - 1))
		for b := 0; b < w; b++ {
			o.LevelOfLen[width-b] = uint8(i)
		}
		width -= w
		// Append digit d to every prefix p, back to front so that no
		// prefix is overwritten before it is read.
		for p := n - 1; p >= 0; p-- {
			prefix := o.Label[p] << w
			for d := l.Arity - 1; d >= 0; d-- {
				o.Label[p*l.Arity+d] = prefix | uint64(d)
			}
		}
		n *= l.Arity
	}
	return o
}

// FirstDiffLevel is Hierarchy.FirstDiffLevel read off the labels.
func (o *LevelOracle) FirstDiffLevel(a, b int) int {
	return int(o.LevelOfLen[bits.Len64(o.Label[a]^o.Label[b])])
}

// Prepend returns the hierarchy with an extra outermost level, e.g. adding
// the compute-node count above a per-node hierarchy, or network levels
// above the node level.
func (h Hierarchy) Prepend(l Level) (Hierarchy, error) {
	levels := append([]Level{l}, h.levels...)
	return NewNamed(levels...)
}

// Sub returns the sub-hierarchy formed by levels [from, to).
func (h Hierarchy) Sub(from, to int) (Hierarchy, error) {
	if from < 0 || to > len(h.levels) || from >= to {
		return Hierarchy{}, fmt.Errorf("%w: Sub(%d, %d) of depth %d", ErrBadLevel, from, to, len(h.levels))
	}
	return NewNamed(h.levels[from:to]...)
}
