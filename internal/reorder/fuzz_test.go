// Fuzz harness for the Decompose∘Compose bijection (satellite of the
// order-search fast path): random hierarchies × random orders, checking
// that the reorder table is always a permutation and that UndoOrder really
// inverts the reordering. Under plain `go test` only the seed corpus runs;
// `go test -fuzz=FuzzReorderBijection ./internal/reorder` explores further.

package reorder

import (
	"math/rand"
	"testing"

	"repro/internal/mixedradix"
	"repro/internal/topology"
)

// caseFromSeed derives a random-but-reproducible hierarchy and order from
// one fuzz input.
func caseFromSeed(seed uint64) (ar []int, sigma []int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	depth := 1 + rng.Intn(6)
	ar = make([]int, depth)
	for i := range ar {
		ar[i] = 2 + rng.Intn(3)
	}
	return ar, rng.Perm(depth)
}

func FuzzReorderBijection(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99999, 1 << 40, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		ar, sigma := caseFromSeed(seed)
		h, err := topology.New(ar...)
		if err != nil {
			t.Fatalf("topology.New(%v): %v", ar, err)
		}
		ro, err := New(h, sigma)
		if err != nil {
			t.Fatalf("New(%v, %v): %v", ar, sigma, err)
		}
		n := ro.Size()

		// The table must be a permutation of [0, n): every new rank hit
		// exactly once.
		seen := make([]bool, n)
		for old := 0; old < n; old++ {
			nw := ro.NewRank(old)
			if nw < 0 || nw >= n {
				t.Fatalf("h=%v σ=%v: NewRank(%d) = %d outside [0, %d)", ar, sigma, old, nw, n)
			}
			if seen[nw] {
				t.Fatalf("h=%v σ=%v: new rank %d assigned twice", ar, sigma, nw)
			}
			seen[nw] = true
			if ro.OldRank(nw) != old {
				t.Fatalf("h=%v σ=%v: inverse[%d] = %d, want %d", ar, sigma, nw, ro.OldRank(nw), old)
			}
		}

		// UndoOrder inverts the reordering: composing the new rank against
		// the reordered hierarchy with τ = UndoOrder(σ) restores the
		// original rank.
		rh := mixedradix.ReorderedHierarchy(ar, sigma)
		tau := mixedradix.UndoOrder(sigma)
		for old := 0; old < n; old++ {
			back := mixedradix.NewRank(rh, ro.NewRank(old), tau)
			if back != old {
				t.Fatalf("h=%v σ=%v τ=%v: rank %d round-trips to %d", ar, sigma, tau, old, back)
			}
		}
	})
}
