// Package perm provides permutation utilities used throughout the
// mixed-radix enumeration library: generation of all permutations via
// Heap's algorithm, ranking and unranking in the factorial number system,
// inversion, composition, and the textual order notation used by the paper
// (for example "2-1-0-3").
//
// A permutation of k elements is represented as a []int of length k holding
// each value in [0, k) exactly once. The paper calls permutations of
// hierarchy levels "orders".
package perm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrNotPermutation reports that a slice is not a permutation of [0, k).
var ErrNotPermutation = errors.New("perm: not a permutation of [0, k)")

// Identity returns the identity permutation [0, 1, …, k-1].
func Identity(k int) []int {
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	return p
}

// Reversed returns the reversing permutation [k-1, k-2, …, 0].
// Applied as an order, it reproduces the initial enumeration of a
// hierarchy (Figure 2f of the paper).
func Reversed(k int) []int {
	p := make([]int, k)
	for i := range p {
		p[i] = k - 1 - i
	}
	return p
}

// IsPermutation reports whether p holds each value in [0, len(p)) exactly once.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Check returns ErrNotPermutation (wrapped with the offending value) if p is
// not a permutation of [0, len(p)).
func Check(p []int) error {
	// Orders are a handful of levels long; the fixed buffer keeps the check
	// off the heap for every caller that validates per order in a search loop.
	var buf [64]bool
	seen := buf[:]
	if len(p) > len(buf) {
		seen = make([]bool, len(p))
	}
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("%w: element %d is %d, want value in [0, %d)", ErrNotPermutation, i, v, len(p))
		}
		if seen[v] {
			return fmt.Errorf("%w: value %d appears more than once", ErrNotPermutation, v)
		}
		seen[v] = true
	}
	return nil
}

// Compose returns the permutation r with r[i] = p[q[i]] — that is, applying
// q first and then p when permutations are read as index maps.
// It panics if the lengths differ or either argument is not a permutation.
func Compose(p, q []int) []int {
	if len(p) != len(q) {
		panic("perm: Compose length mismatch")
	}
	if !IsPermutation(p) || !IsPermutation(q) {
		panic(ErrNotPermutation)
	}
	r := make([]int, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Apply returns the slice s permuted by p: out[i] = s[p[i]].
// This matches the paper's use of σ: the i-th position of the result is the
// σ(i)-th element of the input. It panics if lengths differ or p is invalid.
func Apply[T any](p []int, s []T) []T {
	if len(p) != len(s) {
		panic("perm: Apply length mismatch")
	}
	if !IsPermutation(p) {
		panic(ErrNotPermutation)
	}
	out := make([]T, len(s))
	for i, v := range p {
		out[i] = s[v]
	}
	return out
}

// Equal reports whether two permutations are identical.
func Equal(p, q []int) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Less reports whether p precedes q in element-wise lexicographic order,
// with a shorter permutation preceding any longer one it prefixes. Unlike
// comparing Format strings, Less is correct for k ≥ 10 ("10" sorts before
// "2" as a string but not as an element), so it is the tie-break used to
// keep rankings deterministic.
func Less(p, q []int) bool {
	for i := 0; i < len(p) && i < len(q); i++ {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return len(p) < len(q)
}

// Factorial returns k! for k ≥ 0. It panics if the result overflows int64.
func Factorial(k int) int64 {
	if k < 0 {
		panic("perm: Factorial of negative number")
	}
	f := int64(1)
	for i := 2; i <= k; i++ {
		next := f * int64(i)
		if next/int64(i) != f {
			panic("perm: Factorial overflow")
		}
		f = next
	}
	return f
}

// All returns all k! permutations of [0, k) generated with Heap's algorithm
// [Heap 1963], the generator cited by the paper (§4), as capped sub-slices
// of one k!·k array: appending to one reallocates it. All panics for k < 0
// or when k! is unreasonably large (k > 12).
func All(k int) [][]int {
	if k < 0 {
		panic("perm: All of negative number")
	}
	if k > 12 {
		panic("perm: All would generate more than 12! permutations")
	}
	if k == 0 {
		return [][]int{{}}
	}
	out := make([][]int, 0, Factorial(k))
	flat := make([]int, cap(out)*k)
	Visit(k, func(p []int) bool {
		cp := flat[len(out)*k : (len(out)+1)*k : (len(out)+1)*k]
		copy(cp, p)
		out = append(out, cp)
		return true
	})
	return out
}

// Visit generates all permutations of [0, k) with Heap's non-recursive
// algorithm, calling fn for each. The slice passed to fn is reused between
// calls; fn must copy it to retain it. Iteration stops early when fn
// returns false.
func Visit(k int, fn func(p []int) bool) {
	if k <= 0 {
		if k == 0 {
			fn([]int{})
		}
		return
	}
	a := Identity(k)
	if !fn(a) {
		return
	}
	// Heap's algorithm, iterative form: c is the encoding of the stack state.
	c := make([]int, k)
	i := 0
	for i < k {
		if c[i] < i {
			if i%2 == 0 {
				a[0], a[i] = a[i], a[0]
			} else {
				a[c[i]], a[i] = a[i], a[c[i]]
			}
			if !fn(a) {
				return
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// Unrank returns the permutation of [0, k) with lexicographic rank r.
// It panics unless 0 ≤ r < k!.
func Unrank(k int, r int64) []int {
	if r < 0 || r >= Factorial(k) {
		panic("perm: Unrank rank out of range")
	}
	avail := Identity(k)
	p := make([]int, k)
	for i := 0; i < k; i++ {
		f := Factorial(k - 1 - i)
		idx := r / f
		r %= f
		p[i] = avail[idx]
		avail = append(avail[:idx], avail[idx+1:]...)
	}
	return p
}

// Format renders p in the paper's order notation: elements joined by
// hyphens, e.g. "2-1-0-3".
func Format(p []int) string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Parse reads the order notation produced by Format. It also accepts
// comma-separated values and the bracketed form "[2, 1, 0, 3]".
// The result must be a permutation of [0, k) for its length k.
func Parse(s string) ([]int, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "[")
	t = strings.TrimSuffix(t, "]")
	if t == "" {
		return nil, fmt.Errorf("perm: empty order %q", s)
	}
	sep := "-"
	if strings.ContainsAny(t, ",") {
		sep = ","
	} else if strings.ContainsAny(t, " ") && !strings.Contains(t, "-") {
		sep = " "
	}
	fields := strings.Split(t, sep)
	p := make([]int, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("perm: bad order element %q in %q: %w", f, s, err)
		}
		p = append(p, v)
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("perm: no elements in order %q", s)
	}
	if err := Check(p); err != nil {
		return nil, fmt.Errorf("perm: parsing %q: %w", s, err)
	}
	return p, nil
}
