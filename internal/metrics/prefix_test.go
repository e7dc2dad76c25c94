package metrics

import (
	"testing"

	"repro/internal/perm"
)

// bruteCrossLevel computes the outermost level a communicator of size m
// crosses under a full order sigma, straight from the definition used by
// the advisor: min over the covering prefix.
// PrefixProduct returns the radix product of the prefix's levels — the
// number of reordered ranks the prefix enumerates before any deeper
// digit varies. Level indices outside [0, len(ar)) are rejected by
// construction at the call sites; the product is not overflow-checked
// (callers validate hierarchy size first, as mapd's parse limits do).
func PrefixProduct(ar, prefix []int) int {
	prod := 1
	for _, l := range prefix {
		prod *= ar[l]
	}
	return prod
}

// PrefixCoverLen returns the length of the shortest prefix of sigma
// whose radix product reaches m — the number of leading positions that
// fully determine the first subcommunicator of size m. It returns
// len(sigma) when even the whole order falls short (only possible when
// m exceeds the hierarchy size).
func PrefixCoverLen(ar, sigma []int, m int) int {
	prod := 1
	for t, l := range sigma {
		if prod >= m {
			return t
		}
		prod *= ar[l]
	}
	return len(sigma)
}

func bruteCrossLevel(ar, sigma []int, m int) int {
	k := len(ar)
	if m <= 1 {
		return k
	}
	minLvl := k
	prod := 1
	for _, l := range sigma {
		if l < minLvl {
			minLvl = l
		}
		prod *= ar[l]
		if prod >= m {
			return minLvl
		}
	}
	return minLvl
}

func TestPrefixCoverLen(t *testing.T) {
	ar := []int{2, 3, 2, 4}
	cases := []struct {
		sigma []int
		m     int
		want  int
	}{
		{[]int{0, 1, 2, 3}, 1, 0},
		{[]int{0, 1, 2, 3}, 2, 1},
		{[]int{0, 1, 2, 3}, 6, 2},
		{[]int{0, 1, 2, 3}, 7, 3},
		{[]int{3, 2, 1, 0}, 8, 2},
		{[]int{0, 2, 1, 3}, 48, 4},
		{[]int{0, 1, 2, 3}, 100, 4}, // m beyond hierarchy size
	}
	for _, c := range cases {
		if got := PrefixCoverLen(ar, c.sigma, c.m); got != c.want {
			t.Errorf("PrefixCoverLen(%v, m=%d) = %d, want %d", c.sigma, c.m, got, c.want)
		}
	}
}

// TestBestCompletionCrossLevelExact checks the two guarantees against
// brute force over every prefix of every permutation: (a) for covered
// prefixes the value equals the crossing level of every completion, and
// (b) for uncovered prefixes it equals the max (deepest) crossing level
// over all completions, and no completion crosses deeper.
func TestBestCompletionCrossLevelExact(t *testing.T) {
	shapes := [][]int{
		{2, 2, 4},
		{2, 3, 2, 2},
		{4, 2, 2, 2},
		{2, 2, 2, 2, 2},
	}
	for _, ar := range shapes {
		k := len(ar)
		size := 1
		for _, a := range ar {
			size *= a
		}
		for m := 2; m <= size; m++ {
			if size%m != 0 {
				continue
			}
			for _, sigma := range perm.All(k) {
				for t2 := 0; t2 <= k; t2++ {
					prefix := sigma[:t2]
					got := BestCompletionCrossLevel(ar, prefix, m)
					// Brute-force the max crossing level over all
					// completions of the prefix.
					best := -1
					for _, full := range perm.All(k) {
						if !hasPrefixSet(full, prefix) {
							continue
						}
						cl := bruteCrossLevel(ar, full, m)
						if cl > best {
							best = cl
						}
					}
					if got != best {
						t.Fatalf("ar=%v prefix=%v m=%d: BestCompletionCrossLevel=%d, brute best=%d",
							ar, prefix, m, got, best)
					}
				}
			}
		}
	}
}

// hasPrefixSet reports whether full starts with exactly the given prefix
// (same levels, same positions).
func hasPrefixSet(full, prefix []int) bool {
	for i, l := range prefix {
		if full[i] != l {
			return false
		}
	}
	return true
}

func TestPrefixProduct(t *testing.T) {
	ar := []int{2, 3, 4}
	if got := PrefixProduct(ar, nil); got != 1 {
		t.Errorf("empty prefix product = %d, want 1", got)
	}
	if got := PrefixProduct(ar, []int{2, 0}); got != 8 {
		t.Errorf("PrefixProduct([2 0]) = %d, want 8", got)
	}
}
