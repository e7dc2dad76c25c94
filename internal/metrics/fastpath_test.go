package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perm"
	"repro/internal/topology"
)

// TestFastPathDifferential proves the closed-form kernels equal the
// table-based reference on well over 1000 randomized (hierarchy, σ,
// commSize) cases, including non-dividing communicator sizes, commSize 1
// and commSize = world.
func TestFastPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := 0
	for iter := 0; iter < 400; iter++ {
		depth := 2 + rng.Intn(5) // 2..6
		ar := make([]int, depth)
		for i := range ar {
			ar[i] = 2 + rng.Intn(3) // 2..4
		}
		h, err := topology.New(ar...)
		if err != nil {
			t.Fatal(err)
		}
		n := h.Size()
		for trial := 0; trial < 4; trial++ {
			sigma := rng.Perm(depth)
			commSize := 1 + rng.Intn(n)
			switch trial {
			case 2:
				commSize = 1
			case 3:
				commSize = n
			}
			fast, err := Characterize(h, sigma, commSize)
			if err != nil {
				t.Fatalf("fast Characterize(%v, %v, %d): %v", ar, sigma, commSize, err)
			}
			table, err := CharacterizeTable(h, sigma, commSize)
			if err != nil {
				t.Fatalf("table Characterize(%v, %v, %d): %v", ar, sigma, commSize, err)
			}
			if fast.RingCost != table.RingCost {
				t.Fatalf("ring cost mismatch for h=%v sigma=%v m=%d: fast %d, table %d",
					ar, sigma, commSize, fast.RingCost, table.RingCost)
			}
			if len(fast.Pairs) != len(table.Pairs) {
				t.Fatalf("pairs length mismatch for h=%v sigma=%v m=%d", ar, sigma, commSize)
			}
			for j := range fast.Pairs {
				if math.Abs(fast.Pairs[j]-table.Pairs[j]) > 1e-9 {
					t.Fatalf("pairs[%d] mismatch for h=%v sigma=%v m=%d: fast %v, table %v",
						j, ar, sigma, commSize, fast.Pairs, table.Pairs)
				}
			}
			cases++
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d differential cases, want >= 1000", cases)
	}
}

// TestFastPathAllOrdersSmall sweeps every order of a few fixed
// hierarchies so the kernels are exercised on the exact inputs of the
// paper's figures, not just random draws.
func TestFastPathAllOrdersSmall(t *testing.T) {
	for _, tc := range []struct {
		ar   []int
		comm int
	}{
		{[]int{2, 2, 4}, 4},
		{[]int{2, 2, 4}, 3}, // non-dividing size
		{[]int{16, 2, 2, 8}, 16},
		{[]int{3, 2, 2}, 6},
	} {
		h := topology.MustNew(tc.ar...)
		for _, sigma := range perm.All(len(tc.ar)) {
			fast, err := Characterize(h, sigma, tc.comm)
			if err != nil {
				t.Fatal(err)
			}
			table, err := CharacterizeTable(h, sigma, tc.comm)
			if err != nil {
				t.Fatal(err)
			}
			if fast.RingCost != table.RingCost {
				t.Errorf("h=%v sigma=%v: ring cost fast %d table %d", tc.ar, sigma, fast.RingCost, table.RingCost)
			}
			for j := range fast.Pairs {
				if math.Abs(fast.Pairs[j]-table.Pairs[j]) > 1e-9 {
					t.Errorf("h=%v sigma=%v: pairs fast %v table %v", tc.ar, sigma, fast.Pairs, table.Pairs)
					break
				}
			}
		}
	}
}

// TestOrderSignatureRefinesClasses checks the pruning signature is sound
// with respect to §3.3: orders with equal signatures always land in the
// same (ring cost, pair percentages) equivalence class.
func TestOrderSignatureRefinesClasses(t *testing.T) {
	h := topology.MustNew(2, 2, 2, 2)
	orders := perm.All(4)
	byKey := map[string][]int{}
	for i, sigma := range orders {
		sig, err := OrderSignature(h, sigma, 4, SignatureOpts{Ring: true, World: true})
		if err != nil {
			t.Fatal(err)
		}
		byKey[sig.Key()] = append(byKey[sig.Key()], i)
	}
	if len(byKey) >= len(orders) {
		t.Fatalf("signature produced no grouping: %d keys for %d orders", len(byKey), len(orders))
	}
	for _, members := range byKey {
		first, err := Characterize(h, orders[members[0]], 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members[1:] {
			ch, err := Characterize(h, orders[m], 4)
			if err != nil {
				t.Fatal(err)
			}
			if ch.RingCost != first.RingCost || !ch.SamePairs(first) {
				t.Fatalf("orders %v and %v share a signature but differ in class",
					orders[members[0]], orders[m])
			}
		}
	}
}

// TestOrderSignatureErrors mirrors Characterize's validation.
func TestOrderSignatureErrors(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	if _, err := OrderSignature(h, []int{0, 1}, 4, SignatureOpts{}); err == nil {
		t.Fatal("want error for wrong-length order")
	}
	if _, err := OrderSignature(h, []int{0, 1, 2}, 0, SignatureOpts{}); err == nil {
		t.Fatal("want error for zero communicator size")
	}
	if _, err := OrderSignature(h, []int{0, 1, 2}, 17, SignatureOpts{}); err == nil {
		t.Fatal("want error for oversized communicator")
	}
}

// TestCharacterizeAllocatesItsResultOnly: the arities are read into a
// stack buffer, so Characterize allocates only the order and pair slices
// it returns.
func TestCharacterizeAllocatesItsResultOnly(t *testing.T) {
	h := topology.MustNew(4, 2, 4, 2, 4, 2)
	sigma := []int{5, 4, 3, 2, 1, 0}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Characterize(h, sigma, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("Characterize allocates %.1f times per run, want 2", allocs)
	}
}

func BenchmarkCharacterizeFast(b *testing.B) {
	h := topology.MustNew(16, 2, 4, 2, 8)
	sigma := []int{3, 2, 1, 4, 0}
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(h, sigma, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharacterizeTable(b *testing.B) {
	h := topology.MustNew(16, 2, 4, 2, 8)
	sigma := []int{3, 2, 1, 4, 0}
	for i := 0; i < b.N; i++ {
		if _, err := CharacterizeTable(h, sigma, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSignatureKernelsReadOnlyTheCoveringPrefix is what lets the order
// search evaluate a covering prefix once for its whole subtree: the Into
// kernels give the same counts whatever follows the prefix that covers m,
// they overwrite a dirty destination, and they allocate nothing.
func TestSignatureKernelsReadOnlyTheCoveringPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(7)
		ar := make([]int, k)
		n := 1
		for i := range ar {
			ar[i] = 2 + rng.Intn(3)
			n *= ar[i]
		}
		sigma := rng.Perm(k)
		m := 1 + rng.Intn(n)
		sig, err := OrderSignature(topology.MustNew(ar...), sigma, m, SignatureOpts{Ring: true})
		if err != nil {
			t.Fatal(err)
		}
		// Same prefix, the rest rearranged and then plain garbage.
		cover := PrefixCoverLen(ar, sigma, m)
		other := append([]int(nil), sigma...)
		rng.Shuffle(k-cover, func(i, j int) { other[cover+i], other[cover+j] = other[cover+j], other[cover+i] })
		for range 2 {
			pairs, cross := make([]int64, k), make([]int64, k)
			for i := range pairs {
				pairs[i], cross[i] = -7, -7
			}
			PairCountsPerLevelInto(pairs, ar, other, m)
			CrossingsPerLevelInto(cross, ar, other, m)
			if !slices.Equal(pairs, sig.CommPairs) || !slices.Equal(cross, sig.CommCross) {
				t.Fatalf("ar=%v σ=%v m=%d tail %v: pairs %v cross %v, want %v %v",
					ar, sigma, m, other[cover:], pairs, cross, sig.CommPairs, sig.CommCross)
			}
			for i := cover; i < k; i++ {
				other[i] = 0
			}
		}
	}

	ar, sigma := []int{2, 2, 2, 2, 2, 4}, []int{5, 3, 1, 0, 2, 4}
	pairs, cross := make([]int64, 6), make([]int64, 6)
	key := make([]byte, 0, 64)
	seen := map[string]bool{}
	allocs := testing.AllocsPerRun(100, func() {
		PairCountsPerLevelInto(pairs, ar, sigma, 16)
		CrossingsPerLevelInto(cross, ar, sigma, 16)
		key = SearchSignature{CommPairs: pairs, CommCross: cross}.AppendKey(key[:0])
		_ = seen[string(key)]
	})
	if allocs != 0 {
		t.Fatalf("signature kernels + key lookup allocate %.1f times per run, want 0", allocs)
	}
}

// TestAppendKey: Key is AppendKey, and the keys of two partial signatures
// concatenate to a key that separates what the whole signature separates —
// the search keys a full order by its carried first-communicator key plus
// its own world tiling.
func TestAppendKey(t *testing.T) {
	h := topology.MustNew(2, 3, 2, 2)
	whole, split := map[string][]int{}, map[string][]int{}
	for _, sigma := range perm.All(4) {
		sig, err := OrderSignature(h, sigma, 6, SignatureOpts{Ring: true, World: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := string(sig.AppendKey([]byte("x"))); got != "x"+sig.Key() {
			t.Fatalf("AppendKey %q does not extend Key %q", got, sig.Key())
		}
		first := SearchSignature{CommPairs: sig.CommPairs, CommCross: sig.CommCross}.AppendKey(nil)
		both := string(SearchSignature{WorldCross: sig.WorldCross}.AppendKey(first))
		// Each map keeps the first order of a class: the two keys agree
		// when every order joins the same one under both.
		w, s := whole[sig.Key()], split[both]
		if !perm.Equal(w, s) {
			t.Fatalf("σ=%v: split key groups it with %v, whole key with %v", sigma, s, w)
		}
		if w == nil {
			whole[sig.Key()], split[both] = sigma, sigma
		}
	}
	if len(whole) != len(split) || len(whole) < 2 {
		t.Fatalf("%d classes by whole key, %d by split key", len(whole), len(split))
	}
}

// CharacterizeTable computes Characterize through the reference path: it
// materializes the placement with the reorder table and runs the O(n²)
// pair loop, the differential oracle of the closed-form kernels.
func CharacterizeTable(h topology.Hierarchy, sigma []int, commSize int) (Characterization, error) {
	p, err := FirstComm(h, sigma, commSize)
	if err != nil {
		return Characterization{}, err
	}
	return Characterization{
		Order:    append([]int(nil), sigma...),
		RingCost: RingCost(p),
		Pairs:    PairsPerLevel(p),
	}, nil
}

// TestBoxPairCountsEqualDP holds the box branch of PairCountsPerLevelInto
// to a copy of the digit DP it bypasses, on the machines the order search
// and the paper's figures use: cloud depth 6–12, Hydra ⟦16,2,2,8⟧, LUMI
// ⟦16,2,4,2,8⟧ and ⟦3,3,3,2,2,2⟧. Every level set, arranged ascending,
// descending and shuffled, is a covering prefix of each m in (P_{t-1},
// P_t]; for each, the kernel equals the DP, and boxPairCounts answers
// exactly when m = P_t, that is, when the prefix is a box. A box's counts
// are the same in all three arrangements: a box is settled by its level
// set, which the order search's memo of box prefixes relies on.
func TestBoxPairCountsEqualDP(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	machines := [][]int{{16, 2, 2, 8}, {16, 2, 4, 2, 8}, {3, 3, 3, 2, 2, 2}}
	for d := cluster.CloudMinDepth; d <= cluster.CloudMaxDepth; d++ {
		machines = append(machines, cluster.Cloud(d).Hierarchy().Arities())
	}
	for _, ar := range machines {
		k := len(ar)
		got, want, asc := make([]int64, k), make([]int64, k), make([]int64, k)
		boxes := 0
		for set := uint32(1); set < 1<<uint(k); set++ {
			var levels, rest []int
			for l := 0; l < k; l++ {
				if set&(1<<uint(l)) != 0 {
					levels = append(levels, l)
				} else {
					rest = append(rest, l)
				}
			}
			for arrangement := 0; arrangement < 3; arrangement++ {
				switch arrangement {
				case 1:
					slices.Reverse(levels)
				case 2:
					rng.Shuffle(len(levels), func(i, j int) { levels[i], levels[j] = levels[j], levels[i] })
				}
				sigma := append(slices.Clone(levels), rest...)
				outer := 1 // P_{t-1}: the product the prefix's last level completes
				for _, l := range levels[:len(levels)-1] {
					outer *= ar[l]
				}
				prod := outer * ar[levels[len(levels)-1]]
				for m := outer + 1; m <= prod; m++ {
					PairCountsPerLevelInto(got, ar, sigma, m)
					pairCountsDP(want, ar, sigma, m)
					if !slices.Equal(got, want) {
						t.Fatalf("ar=%v σ=%v m=%d: pairs %v, the DP %v", ar, sigma, m, got, want)
					}
					isBox := boxPairCounts(got, ar, sigma, m)
					if isBox != (m == prod) {
						t.Fatalf("ar=%v σ=%v m=%d: box %v, want %v", ar, sigma, m, isBox, m == prod)
					}
					if isBox {
						boxes++
					}
				}
				if arrangement == 0 {
					copy(asc, got)
				} else if !slices.Equal(got, asc) {
					t.Fatalf("ar=%v σ=%v m=%d: pairs %v, the ascending arrangement %v", ar, sigma, prod, got, asc)
				}
			}
		}
		if boxes == 0 {
			t.Fatalf("ar=%v: no box prefix was checked", ar)
		}
	}
}

// pairCountsDP is PairCountsPerLevelInto without its box branch: every
// prefix runs the digit DP.
func pairCountsDP(out []int64, ar, sigma []int, m int) {
	k := len(ar)
	var b, g [32]int64
	clear(out[:k])
	t := 0
	for rem := m - 1; rem > 0 && t < k; t++ {
		b[t] = int64(ar[sigma[t]])
		g[t] = int64(rem) % b[t]
		rem /= int(b[t])
		out[k-1-sigma[t]] = 1
	}
	next := int64(0)
	for l := k - 1; l >= 0; l-- {
		if out[k-1-l] == 0 {
			continue
		}
		e := (agreeingOrderedPairs(b[:t], g[:t], sigma, l) - int64(m)) / 2
		out[k-1-l] = e - next
		next = e
	}
}
