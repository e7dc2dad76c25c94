// Package mixedradix implements the paper's core contribution: mixed-radix
// decomposition of ranks over a machine hierarchy, and re-composition under
// a permutation of hierarchy levels (an "order").
//
// A hierarchy h = ⟦h₀, h₁, …, h_{k-1}⟧ lists, from the outermost level
// inwards, how many children each component of a level has: for example
// ⟦2, 2, 4⟧ is 2 nodes × 2 sockets × 4 cores (Figure 1 of the paper).
//
// Decompose is the paper's Algorithm 1: it maps a rank to its coordinates
// in the multi-dimensional space spanned by the hierarchy, with c[0] the
// outermost (most significant) coordinate. Compose is Algorithm 2: given
// coordinates and an order σ, it produces the reordered rank
//
//	r = c_{σ(0)} + Σ_{i≥1} c_{σ(i)} · Π_{j<i} h_{σ(j)}
//
// so σ(0) names the level that varies fastest in the new enumeration.
// The order [k-1, …, 0] reproduces the original enumeration.
package mixedradix

import (
	"errors"
	"fmt"

	"repro/internal/perm"
)

// ErrBadHierarchy reports an invalid hierarchy description.
var ErrBadHierarchy = errors.New("mixedradix: invalid hierarchy")

// ErrRankRange reports a rank outside [0, Size(h)).
var ErrRankRange = errors.New("mixedradix: rank out of range")

// CheckHierarchy verifies that every radix is strictly greater than 1, as
// required by the mixed-radix numeral system (§3.1), and that the hierarchy
// is non-empty.
func CheckHierarchy(h []int) error {
	if len(h) == 0 {
		return fmt.Errorf("%w: empty", ErrBadHierarchy)
	}
	for i, v := range h {
		if v <= 1 {
			return fmt.Errorf("%w: level %d has size %d, want > 1", ErrBadHierarchy, i, v)
		}
	}
	return nil
}

// Size returns the number of ranks the hierarchy enumerates: the product of
// all level sizes. It panics on overflow and on a non-positive radix (a
// zero radix would otherwise propagate a silent 0 into divide-by-zero
// panics downstream); use CheckHierarchy for an error-returning validation.
func Size(h []int) int {
	n := 1
	for i, v := range h {
		if v <= 0 {
			panic(fmt.Sprintf("mixedradix: invalid hierarchy: level %d has non-positive size %d", i, v))
		}
		if n > int(^uint(0)>>1)/v {
			panic("mixedradix: hierarchy size overflows int")
		}
		n *= v
	}
	return n
}

// Decompose implements Algorithm 1: it returns the coordinates c of rank r
// in hierarchy h, where c[i] ∈ [0, h[i]) and c[0] is the outermost level.
// Decompose panics if r is outside [0, Size(h)); use DecomposeChecked for
// an error-returning variant.
func Decompose(h []int, r int) []int {
	c := make([]int, len(h))
	DecomposeInto(h, r, c)
	return c
}

// DecomposeInto is Decompose writing into a caller-provided slice of
// length len(h), avoiding an allocation in hot loops. Unlike earlier
// versions it does not recompute Size(h) on every call: the digits are
// extracted first and any rank outside [0, Size(h)) is detected from the
// non-zero quotient that remains.
func DecomposeInto(h []int, r int, c []int) {
	if len(c) != len(h) {
		panic("mixedradix: DecomposeInto destination length mismatch")
	}
	if r < 0 {
		panic(fmt.Sprintf("mixedradix: rank %d out of range [0, %d)", r, Size(h)))
	}
	rank := r
	for i := len(h) - 1; i >= 0; i-- {
		v := h[i]
		if v <= 0 {
			panic(fmt.Sprintf("mixedradix: invalid hierarchy: level %d has non-positive size %d", i, v))
		}
		c[i] = r % v
		r /= v
	}
	if r != 0 {
		panic(fmt.Sprintf("mixedradix: rank %d out of range [0, %d)", rank, Size(h)))
	}
}

// DecomposeChecked is Decompose with validation errors instead of panics.
func DecomposeChecked(h []int, r int) ([]int, error) {
	if err := CheckHierarchy(h); err != nil {
		return nil, err
	}
	if r < 0 || r >= Size(h) {
		return nil, fmt.Errorf("%w: rank %d, hierarchy size %d", ErrRankRange, r, Size(h))
	}
	return Decompose(h, r), nil
}

// Compose implements Algorithm 2: it computes the reordered rank of the
// coordinates c under the order sigma. Both slices must have the hierarchy's
// length and sigma must be a permutation of [0, len(h)).
func Compose(h, c, sigma []int) int {
	if len(c) != len(h) || len(sigma) != len(h) {
		panic("mixedradix: Compose length mismatch")
	}
	r := 0
	f := 1
	for i := 0; i < len(h); i++ {
		r += c[sigma[i]] * f
		f *= h[sigma[i]]
	}
	return r
}

// ComposeChecked is Compose with validation errors instead of panics.
func ComposeChecked(h, c, sigma []int) (int, error) {
	if err := CheckHierarchy(h); err != nil {
		return 0, err
	}
	if len(c) != len(h) {
		return 0, fmt.Errorf("%w: %d coordinates for %d levels", ErrBadHierarchy, len(c), len(h))
	}
	for i, v := range c {
		if v < 0 || v >= h[i] {
			return 0, fmt.Errorf("%w: coordinate %d is %d, want [0, %d)", ErrRankRange, i, v, h[i])
		}
	}
	if err := CheckOrder(h, sigma); err != nil {
		return 0, err
	}
	return Compose(h, c, sigma), nil
}

// CheckOrder verifies that sigma is a usable order for hierarchy h: the
// lengths must match (checked first, so a wrong-length order is reported
// as such rather than as a spurious not-a-permutation error) and sigma
// must be a permutation of [0, len(h)).
func CheckOrder(h, sigma []int) error {
	if len(sigma) != len(h) {
		return fmt.Errorf("%w: order has %d levels, hierarchy has %d", ErrBadHierarchy, len(sigma), len(h))
	}
	return perm.Check(sigma)
}

// NewRank applies Algorithm 1 followed by Algorithm 2: the reordered rank of
// r in hierarchy h under order sigma. This is the ComputeNewRank step used
// by Algorithm 3 (§3.4).
func NewRank(h []int, r int, sigma []int) int {
	c := make([]int, len(h))
	DecomposeInto(h, r, c)
	return Compose(h, c, sigma)
}

// Reorderer precomputes state for repeated queries on one (hierarchy,
// order) pair: its size and both enumerations as radices and digit
// weights, fastest digit first, so NewRank is one divide loop with no
// scratch and every table one fill call. Apart from Reset, a Reorderer is
// read-only after construction and safe for concurrent use.
type Reorderer struct {
	h      []int
	sigma  []int
	suffix []int // suffix[l] = Π_{i > l} h[i], the old weight of level l's digit
	inner  []int // inner[j] = h[k-1-j]: the hierarchy, fastest-varying first
	weight []int // weight[j]: what one step of inner digit j adds to the new rank
	radix  []int // radix[j] = h[σ(j)]: the permuted hierarchy, fastest-varying first
	stride []int // stride[j] = suffix[σ(j)]: what one step of permuted digit j adds to the old rank
	n      int   // Size(h), hoisted
}

// NewReorderer validates its inputs and returns a Reorderer.
func NewReorderer(h, sigma []int) (*Reorderer, error) {
	if err := CheckHierarchy(h); err != nil {
		return nil, err
	}
	k := len(h)
	buf := make([]int, 7*k) // one backing array for the seven k-entry tables
	part := func(i int) []int { return buf[i*k : (i+1)*k : (i+1)*k] }
	ro := &Reorderer{
		h: part(0), sigma: part(1), suffix: part(2), inner: part(3),
		weight: part(4), radix: part(5), stride: part(6),
		n: Size(h),
	}
	copy(ro.h, h)
	for l, f := k-1, 1; l >= 0; l-- {
		ro.suffix[l] = f
		ro.inner[k-1-l] = h[l]
		f *= h[l]
	}
	if err := ro.Reset(sigma); err != nil {
		return nil, err
	}
	return ro, nil
}

// Reset re-targets the reorderer at another order of the same hierarchy,
// reusing its storage: the allocation-free way to walk many orders (an
// order search evaluates thousands). It must not run concurrently with any
// other method; on error the reorderer keeps its previous order.
func (ro *Reorderer) Reset(sigma []int) error {
	if err := CheckOrder(ro.h, sigma); err != nil {
		return err
	}
	copy(ro.sigma, sigma)
	k, f := len(sigma), 1
	for j, l := range sigma {
		ro.weight[k-1-l] = f
		ro.radix[j] = ro.h[l]
		ro.stride[j] = ro.suffix[l]
		f *= ro.h[l]
	}
	return nil
}

// Hierarchy returns a copy of the reorderer's hierarchy.
func (ro *Reorderer) Hierarchy() []int { return append([]int(nil), ro.h...) }

// Order returns a copy of the reorderer's order.
func (ro *Reorderer) Order() []int { return append([]int(nil), ro.sigma...) }

// Size returns the number of ranks enumerated.
func (ro *Reorderer) Size() int { return ro.n }

// NewRank returns the reordered rank of r. It allocates nothing.
func (ro *Reorderer) NewRank(r int) int {
	if r < 0 || r >= ro.n {
		panic(fmt.Sprintf("mixedradix: rank %d out of range [0, %d)", r, ro.n))
	}
	nr := 0
	for j, v := range ro.inner {
		nr += (r % v) * ro.weight[j]
		r /= v
	}
	return nr
}

// Table returns the full mapping t with t[old] = new for every rank. The
// result is always a permutation of [0, Size(h)) (see TestReorderBijection).
func (ro *Reorderer) Table() []int {
	t := make([]int, ro.n)
	ro.TableInto(t)
	return t
}

// TableInto is Table writing into a caller-provided slice of length
// Size(h): the block odometer over the original enumeration, so the whole
// table costs O(n) rather than n divide loops. It allocates nothing.
func (ro *Reorderer) TableInto(t []int) {
	if len(t) != ro.n {
		panic(fmt.Sprintf("mixedradix: TableInto destination has %d entries, hierarchy enumerates %d", len(t), ro.n))
	}
	fill(t, 0, ro.inner, ro.weight)
}

// InverseTable returns inv with inv[new] = old: for each reordered rank,
// the original rank (hence the original core) it is placed on. This is the
// rankfile view of the mapping.
func (ro *Reorderer) InverseTable() []int {
	inv := make([]int, ro.n)
	ro.InverseTableInto(inv)
	return inv
}

// InverseTableInto is InverseTable writing into a caller-provided slice of
// length Size(h), built directly without materializing the forward table.
func (ro *Reorderer) InverseTableInto(inv []int) {
	if len(inv) != ro.n {
		panic(fmt.Sprintf("mixedradix: InverseTableInto destination has %d entries, hierarchy enumerates %d", len(inv), ro.n))
	}
	ro.InverseRangeInto(inv, 0)
}

// InverseRangeInto writes the original ranks of the reordered ranks
// [first, first+len(dst)) into dst: dst[i] = InverseTable()[first+i]. It is
// the point-query form of the rankfile view — a communicator's cores cost
// O(k + len(dst)) whatever the hierarchy size — and allocates nothing.
func (ro *Reorderer) InverseRangeInto(dst []int, first int) {
	if first < 0 || len(dst) > ro.n || first > ro.n-len(dst) {
		panic(fmt.Sprintf("mixedradix: reordered ranks [%d, %d+%d) out of range [0, %d)", first, first, len(dst), ro.n))
	}
	fill(dst, first, ro.radix, ro.stride)
}

// fill is the block odometer behind every table: dst[i] = Σ_j d_j·step[j]
// for the digits d_j of rank first+i in radix, fastest first. The fastest
// b ≤ 6 digits span a block of ≥ 64 ranks (or all ranks, if fewer). A
// carry loop writes up to the first block boundary, doubling builds the
// next block, and every later block is a copy of it plus its base, the
// slower digits' share: O(k + len(dst)), allocation-free at any depth.
func fill(dst []int, first int, radix, step []int) {
	b, size := 0, 1
	for b < len(radix) && size < 64 {
		size *= radix[b]
		b++
	}
	// Algorithm 1 on first: block digits c, their share off, q's base.
	var c [6]int
	off, base, q := 0, 0, first/size
	for j, r := 0, first; j < len(radix); j, r = j+1, r/radix[j] {
		if d := r % radix[j]; j < b {
			c[j], off = d, off+d*step[j]
		} else {
			base += d * step[j]
		}
	}
	head := min(len(dst), (size-first%size)%size)
	for i := 0; i < head; i++ {
		dst[i] = base + off
		j := 0
		for ; j < b && c[j]+1 == radix[j]; j++ {
			off -= c[j] * step[j]
			c[j] = 0
		}
		if j < b {
			c[j]++
			off += step[j]
		}
	}
	if head == len(dst) {
		return
	} else if head > 0 {
		q, base = q+1, nextBase(base, q+1, b, radix, step)
	}
	block := dst[head:min(len(dst), head+size)]
	// Doubling: block level j repeats the m values below it radix[j] times.
	block[0] = base
	for j, m := 0, 1; m < len(block); m, j = m*radix[j], j+1 {
		for d := 1; d < radix[j] && d*m < len(block); d++ {
			seg := block[d*m : min((d+1)*m, len(block))]
			src, v := block[:len(seg)], d*step[j]
			for x := range seg {
				seg[x] = src[x] + v
			}
		}
	}
	for i := head + size; i < len(dst); i += size {
		q, base = q+1, nextBase(base, q+1, b, radix, step)
		blk := dst[i:min(i+size, len(dst))]
		src, d := block[:len(blk)], base-block[0]
		for x := range blk {
			blk[x] = src[x] + d
		}
	}
}

// nextBase steps fill's block base from block q-1 to block q without digit
// storage: digit j ≥ b wraps iff q is a multiple of Π radix[b..j].
func nextBase(base, q, b int, radix, step []int) int {
	for j, p := b, 1; j < len(radix); j++ {
		p *= radix[j]
		if q%p != 0 {
			return base + step[j]
		}
		base -= (radix[j] - 1) * step[j]
	}
	return base
}

// ReorderAll is a convenience wrapper returning Table for (h, sigma).
func ReorderAll(h, sigma []int) ([]int, error) {
	ro, err := NewReorderer(h, sigma)
	if err != nil {
		return nil, err
	}
	return ro.Table(), nil
}

// PermutedHierarchy returns [h_{σ(0)}, h_{σ(1)}, …]: the "permuted
// hierarchy" column of Table 1, pairing position-by-position with
// PermutedCoordinates (position 0 is the fastest-varying level of the new
// enumeration).
func PermutedHierarchy(h, sigma []int) []int {
	return perm.Apply(sigma, h)
}

// PermutedCoordinates returns [c_{σ(0)}, c_{σ(1)}, …]: the "permuted
// coordinates" column of Table 1.
func PermutedCoordinates(c, sigma []int) []int {
	return perm.Apply(sigma, c)
}

// IdentityOrder returns the order that leaves the enumeration unchanged,
// [k-1, …, 0] (Figure 2f): Algorithm 2 with this order inverts Algorithm 1.
func IdentityOrder(k int) []int { return perm.Reversed(k) }
