// Fuzz harness for the reorder tables: random hierarchies × random orders
// × a random range of reordered ranks, checking that the block odometer
// behind TableInto, InverseTableInto and InverseRangeInto agrees with the
// stateless mixedradix.NewRank rank by rank, and that the table is a
// permutation. Under plain `go test` only the seed corpus runs;
// `go test -fuzz=FuzzReorderBijection ./internal/reorder` explores further.

package reorder

import (
	"math/rand"
	"testing"

	"repro/internal/mixedradix"
	"repro/internal/topology"
)

// maxFuzzSize caps the ranks of a fuzzed hierarchy.
const maxFuzzSize = 1 << 18

// caseFromSeed derives a hierarchy of 1 + depth%17 levels with radices in
// [2, 2 + spread%8], and an order, from one fuzz input. A radix is cut
// down when the levels after it could not otherwise stay within
// maxFuzzSize at radix 2, so spread 0 gives radices all 2 at every depth.
func caseFromSeed(depth, spread uint8, seed uint64) (ar []int, sigma []int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	k := 1 + int(depth%17)
	ar = make([]int, k)
	n := 1
	for i := range ar {
		room := maxFuzzSize / n >> (k - 1 - i)
		ar[i] = min(2+rng.Intn(1+int(spread%8)), room)
		n *= ar[i]
	}
	return ar, rng.Perm(k)
}

func FuzzReorderBijection(f *testing.F) {
	for _, c := range []struct {
		depth, spread uint8
		seed          uint64
		first, length uint32
	}{
		{3, 2, 0, 5, 40},
		{4, 3, 1, 100, 1000},
		{5, 2, 7, 0, 1 << 20},
		{0, 7, 42, 3, 4},             // depth 1
		{9, 0, 1234, 0, 1 << 20},     // radices all 2: the block needs six levels
		{2, 1, 99999, 2, 9},          // under 64 ranks: one block is the whole hierarchy
		{15, 7, 1 << 40, 777, 5000},  // depth 16
		{16, 7, 0xdeadbeef, 65, 129}, // depth 17
		{9, 0, 5, 37, 300},           // 1 024 ranks in blocks of 64: [37, 337) starts and ends mid-block
		{9, 0, 6, 63, 200},           // [63, 263): a one-rank head before the first block boundary
	} {
		f.Add(c.depth, c.spread, c.seed, c.first, c.length)
	}
	f.Fuzz(func(t *testing.T, depth, spread uint8, seed uint64, first32, length32 uint32) {
		ar, sigma := caseFromSeed(depth, spread, seed)
		h, err := topology.New(ar...)
		if err != nil {
			t.Fatalf("topology.New(%v): %v", ar, err)
		}
		ro, err := New(h, sigma)
		if err != nil {
			t.Fatalf("New(%v, %v): %v", ar, sigma, err)
		}
		mr, err := mixedradix.NewReorderer(ar, sigma)
		if err != nil {
			t.Fatalf("NewReorderer(%v, %v): %v", ar, sigma, err)
		}
		n := ro.Size()

		// The forward table against the oracle, which must be a
		// permutation of [0, n): every new rank hit exactly once.
		table := make([]int, n)
		mr.TableInto(table)
		inv := make([]int, n)
		seen := make([]bool, n)
		for old := 0; old < n; old++ {
			nw := mixedradix.NewRank(ar, old, sigma)
			if table[old] != nw || ro.NewRank(old) != nw {
				t.Fatalf("h=%v σ=%v: new rank of %d is %d (TableInto), %d (Reordering), want %d",
					ar, sigma, old, table[old], ro.NewRank(old), nw)
			}
			if nw < 0 || nw >= n || seen[nw] {
				t.Fatalf("h=%v σ=%v: new rank %d out of range or assigned twice", ar, sigma, nw)
			}
			seen[nw] = true
			inv[nw] = old
		}

		// The inverse table, whole and as a range.
		got := make([]int, n)
		mr.InverseTableInto(got)
		for nw, old := range inv {
			if got[nw] != old || ro.OldRank(nw) != old {
				t.Fatalf("h=%v σ=%v: old rank of %d is %d (InverseTableInto), %d (Reordering), want %d",
					ar, sigma, nw, got[nw], ro.OldRank(nw), old)
			}
		}
		first := int(first32 % uint32(n+1))
		dst := make([]int, int(length32%uint32(n-first+1)))
		mr.InverseRangeInto(dst, first)
		for i, old := range dst {
			if old != inv[first+i] {
				t.Fatalf("h=%v σ=%v: InverseRangeInto(%d ranks, %d)[%d] = %d, want %d",
					ar, sigma, len(dst), first, i, old, inv[first+i])
			}
		}

	})
}
