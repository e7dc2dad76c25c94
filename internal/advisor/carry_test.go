package advisor

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/topology"
)

// carryHierarchy draws a hierarchy of the given depth with arities 2–5,
// non-powers of two included, of at most 2^16 cores so that the engine's
// predictors stay small.
func carryHierarchy(rng *rand.Rand, depth int) topology.Hierarchy {
	ar := make([]int, depth)
	n := 1
	for i := range ar {
		ar[i] = 2 + rng.Intn(4)
		if n*ar[i]*(1<<(depth-1-i)) > 1<<16 {
			ar[i] = 2
		}
		n *= ar[i]
	}
	return topology.MustNew(ar...)
}

func carryEngine(t testing.TB, h topology.Hierarchy, p int, coll Collective, sim bool) *bnbEngine {
	t.Helper()
	sc := Scenario{Spec: cluster.Cloud(cluster.CloudMaxDepth), Hierarchy: h, Coll: coll, CommSize: p, Simultaneous: sim, Bytes: 1 << 20}
	e, err := newBnbEngine(context.Background(), sc, 3, nodeBudget, progressEvery)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkCarriedLeaf compares, at the full order e.sigma, the world profile
// and fingerprint the path carried down with the closed-form kernel.
func checkCarriedLeaf(t testing.TB, e *bnbEngine) {
	t.Helper()
	want := make([]int64, e.k)
	metrics.CrossingsPerLevelInto(want, e.ar, e.sigma, e.n)
	var fp uint64
	for l, c := range want {
		fp += uint64(c) * fpMul[l]
		if int64(e.prof[l]) != c {
			t.Fatalf("%v under %v: carried profile %v, CrossingsPerLevelInto %v", e.ar, e.sigma, e.prof[:e.k], want)
		}
	}
	if e.path[e.k].fp != fp {
		t.Fatalf("%v under %v: carried fingerprint %#x, want %#x", e.ar, e.sigma, e.path[e.k].fp, fp)
	}
}

// walkLeaves visits every full order below the node e.sigma[:t] through
// the search's own steps (cover, descend, ascend) and calls leaf at each.
func walkLeaves(t testing.TB, e *bnbEngine, depth int, leaf func()) {
	if err := e.cover(depth); err != nil {
		t.Fatal(err)
	}
	if depth == e.k {
		leaf()
		return
	}
	for free := e.all &^ e.path[depth].used; free != 0; free &= free - 1 {
		e.descend(depth, bits.TrailingZeros32(free))
		walkLeaves(t, e, depth+1, leaf)
		e.ascend(depth)
	}
}

// commKey renders the first communicator's signature of a full order as
// the search keyed it before the ids: pairs, and crossings for a ring.
func commKey(e *bnbEngine, sigma []int) string {
	pairs, cross := make([]int64, e.k), make([]int64, e.k)
	sig := metrics.SearchSignature{CommPairs: pairs}
	metrics.PairCountsPerLevelInto(pairs, e.ar, sigma, e.p)
	if e.ring {
		sig.CommCross = cross
		metrics.CrossingsPerLevelInto(cross, e.ar, sigma, e.p)
	}
	return sig.Key()
}

// TestCarriedProfileMatchesCrossings: at every leaf the DFS reaches, the
// world profile and fingerprint carried down the prefix tree equal the
// closed-form CrossingsPerLevelInto(…, n), and the carried first
// communicator is the one its covering prefix places, for every divisor p
// of random hierarchies of depth 2–12. Past depth 7 the leaves below random
// depth k−5 prefixes stand in for all k!. The walk back up leaves the
// profile at zero.
func TestCarriedProfileMatchesCrossings(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for depth := 2; depth <= 12; depth++ {
		for rep := 0; rep < 3; rep++ {
			h := carryHierarchy(rng, depth)
			divisors := divisorsOf(h.Size())
			if depth > 7 {
				divisors = []int{divisors[rng.Intn(len(divisors))], h.Size()}
			}
			for _, p := range divisors {
				coll := []Collective{Alltoall, Allgather}[rng.Intn(2)]
				e := carryEngine(t, h, p, coll, rng.Intn(2) == 0)
				keys := map[string]int32{}
				leaf := func() {
					checkCarriedLeaf(t, e)
					key, id := commKey(e, e.sigma), e.path[e.k].id
					j, seen := e.ids.id(keyFingerprint([]byte(key)), []byte(key))
					if prev, ok := keys[key]; ok && prev != id || id < 0 || !seen || int32(j) != id {
						t.Fatalf("%v p=%d under %v: carried communicator %d, signature interned as %d (%v)", e.ar, p, e.sigma, id, j, seen)
					}
					keys[key] = id
				}
				start := 0
				if depth > 7 {
					start = depth - 5
					for d, l := range rng.Perm(depth)[:start] {
						if err := e.cover(d); err != nil {
							t.Fatal(err)
						}
						e.descend(d, l)
					}
				}
				walkLeaves(t, e, start, leaf)
				for d := start - 1; d >= 0; d-- {
					e.ascend(d)
				}
				if slices.ContainsFunc(e.prof[:e.k], func(c int) bool { return c != 0 }) {
					t.Fatalf("%v: profile %v after the walk back to the root", e.ar, e.prof[:e.k])
				}
			}
		}
	}
}

// TestBeamCarriesProfile: a beam wide enough to keep every candidate
// reaches every full order through the state its candidates carry, so its
// memo must hold exactly one entry per distinct (first communicator, world
// profile) of all k! orders, under every divisor p.
func TestBeamCarriesProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for depth := 2; depth <= 6; depth++ {
		h := carryHierarchy(rng, depth)
		for _, p := range divisorsOf(h.Size()) {
			coll := []Collective{Alltoall, Allreduce}[rng.Intn(2)]
			e := carryEngine(t, h, p, coll, true)
			e.mode = ModeBeam
			if _, err := e.beam(1 << 30); err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			world := make([]int64, e.k)
			perm.Visit(e.k, func(sigma []int) bool {
				metrics.CrossingsPerLevelInto(world, e.ar, sigma, e.n)
				want[string(metrics.SearchSignature{WorldCross: world}.AppendKey([]byte(commKey(e, sigma))))] = true
				return true
			})
			got := map[string]bool{}
			keyOf := map[int32]string{}
			for id := range e.ids.fps {
				keyOf[int32(id)] = string(e.ids.key(id))
			}
			for j := range e.preds {
				key := e.memo.key(j)
				for l, c := range key[:e.k] {
					world[l] = int64(c)
				}
				got[string(metrics.SearchSignature{WorldCross: world}.AppendKey([]byte(keyOf[int32(key[e.k])])))] = true
			}
			if len(got) != len(e.preds) || !reflect.DeepEqual(got, want) || e.evals != int64(len(want)) {
				t.Fatalf("%v p=%d: beam memo holds %d entries (%d distinct), %d evaluated; the orders have %d classes",
					e.ar, p, len(e.preds), len(got), e.evals, len(want))
			}
			if e.covered != perm.Factorial(depth) {
				t.Fatalf("%v p=%d: beam covered %d orders, want %d", e.ar, p, e.covered, perm.Factorial(depth))
			}
		}
	}
}

// FuzzCarriedProfile holds the world profile carried down one path to the
// closed-form kernel, and the way back up to an empty profile.
func FuzzCarriedProfile(f *testing.F) {
	f.Add(uint8(3), uint64(1))
	f.Add(uint8(11), uint64(0xdeadbeef))
	f.Add(uint8(7), uint64(42))
	f.Fuzz(func(t *testing.T, depth uint8, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := 1 + int(depth)%12
		h := carryHierarchy(rng, k)
		e := carryEngine(t, h, h.Level(k-1).Arity, Alltoall, false)
		for d, l := range rng.Perm(k) {
			e.descend(d, l)
		}
		checkCarriedLeaf(t, e)
		for d := k - 1; d >= 0; d-- {
			e.ascend(d)
		}
		if slices.ContainsFunc(e.prof[:e.k], func(c int) bool { return c != 0 }) {
			t.Fatalf("%v: profile %v after the walk back to the root", e.ar, e.prof[:e.k])
		}
	})
}

// TestLeafMemoClassesMatchSignatureKeys: over every full order, the leaf
// classes are exactly the equivalence classes of the signature keys the
// search used before fingerprints (the first communicator's key, then the
// world profile's under Simultaneous) — with the real multipliers and with
// all-zero ones, under which every key collides. With one communicator a
// leaf's class is its first communicator's id, under Simultaneous the
// memo's entry.
func TestLeafMemoClassesMatchSignatureKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	orig := fpMul
	defer func() { fpMul = orig }()
	for _, mul := range [][33]uint64{orig, {}} {
		fpMul = mul
		for depth := 2; depth <= 6; depth++ {
			h := carryHierarchy(rng, depth)
			for _, p := range divisorsOf(h.Size()) {
				for _, sim := range []bool{false, true} {
					e := carryEngine(t, h, p, Allgather, sim)
					class := map[string]int{} // old key → memo entry
					oldKey := func() string {
						k := commKey(e, e.sigma)
						if sim {
							world := make([]int64, e.k)
							metrics.CrossingsPerLevelInto(world, e.ar, e.sigma, e.n)
							k = string(metrics.SearchSignature{WorldCross: world}.AppendKey([]byte(k)))
						}
						return k
					}
					walkLeaves(t, e, 0, func() {
						j := int(e.path[e.k].id)
						if sim {
							j, _ = e.memo.id(e.leafKey(e.k))
						}
						k := oldKey()
						if prev, ok := class[k]; ok && prev != j {
							t.Fatalf("%v p=%d sim=%v: key of %v found entry %d, earlier %d", e.ar, p, sim, e.sigma, j, prev)
						}
						class[k] = j
					})
					entries := len(e.ids.fps)
					if sim {
						entries = len(e.memo.fps)
					}
					if len(class) != entries {
						t.Fatalf("%v p=%d sim=%v: %d signature classes, %d leaf classes", e.ar, p, sim, len(class), entries)
					}
				}
			}
		}
	}
}

// TestSearchUnchangedUnderFingerprintCollisions: with every fingerprint
// equal, branch-and-bound and beam answer exactly as with the real
// multipliers, the same evaluation count included.
func TestSearchUnchangedUnderFingerprintCollisions(t *testing.T) {
	orig := fpMul
	defer func() { fpMul = orig }()
	for _, ar := range [][]int{{2, 3, 2, 2, 2}, {2, 2, 2, 2, 2, 4}, {3, 2, 5, 2}} {
		h := topology.MustNew(ar...)
		for _, p := range []int{4, h.Size() / 2} {
			for _, budget := range []int64{nodeBudget, 40} {
				sc := Scenario{Spec: specFor(h), Hierarchy: h, Coll: Allreduce, CommSize: p, Simultaneous: true, Bytes: 8 << 20}
				opts := SearchOptions{Top: 4}
				fpMul = orig
				want, err := search(context.Background(), sc, opts, budget, 3, progressEvery)
				if err != nil {
					t.Fatal(err)
				}
				fpMul = [33]uint64{}
				got, err := search(context.Background(), sc, opts, budget, 3, progressEvery)
				if err != nil {
					t.Fatal(err)
				}
				if mode := map[bool]string{true: ModeBnB, false: ModeBeam}[budget == nodeBudget]; got.Mode != mode {
					t.Fatalf("%v p=%d budget %d: mode %s, want %s", ar, p, budget, got.Mode, mode)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v p=%d budget %d: colliding fingerprints changed the search:\n%+v\nvs\n%+v", ar, p, budget, got, want)
				}
			}
		}
	}
}

// TestIncumbentsFastPathMatchesFullInsert: on random leaf streams with
// many bandwidth ties, arriving in canonical order (the DFS) or shuffled
// (the beam), insert keeps exactly the set that filing every leaf, sorting
// and trimming keeps — in ranking order and with the same cutoff once
// full, as a multiset before, with the ranking's first leaf as its head.
func TestIncumbentsFastPathMatchesFullInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const k = 5
	orders := perm.All(k)
	for rep := 0; rep < 300; rep++ {
		top := 1 + rng.Intn(6)
		stream := make([]classLeaf, 0, len(orders))
		for _, o := range orders[:20+rng.Intn(len(orders)-20)] {
			split := k - rng.Intn(3)
			bw := float64(1 + rng.Intn(4))
			stream = append(stream, classLeaf{pr: Prediction{Order: o, Bandwidth: bw, Time: 1 / bw},
				split: split, size: perm.Factorial(k - split)})
		}
		if rep%2 == 1 {
			rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		}
		in, ref := incumbents{top: top}, incumbents{top: top}
		scratch := make([]int, k)
		for _, l := range stream {
			// insert reads the order from the engine's scratch buffer.
			copy(scratch, l.pr.Order)
			fast := l
			fast.pr.Order = scratch
			in.insert(fast)
			clear(scratch)

			ref.leaves = append(ref.leaves, l)
			sort.SliceStable(ref.leaves, func(i, j int) bool {
				a, b := ref.leaves[i], ref.leaves[j]
				if a.pr.Bandwidth != b.pr.Bandwidth {
					return a.pr.Bandwidth > b.pr.Bandwidth
				}
				return perm.Less(a.pr.Order, b.pr.Order)
			})
			ref.trim()
			var cum int64
			ref.thr = 0
			for _, r := range ref.leaves {
				cum += r.size
				ref.thr = max(ref.thr, r.pr.Time)
			}
			ref.full = cum >= int64(top)
			kept := in.leaves
			if !in.full {
				kept = slices.Clone(in.leaves)
				slices.SortFunc(kept, func(a, b classLeaf) int { return byRanking(&a, &b) })
			}
			if !reflect.DeepEqual(kept, ref.leaves) || in.full && in.thr != ref.thr || in.full != ref.full ||
				!reflect.DeepEqual(in.leaves[in.head], ref.leaves[0]) {
				t.Fatalf("rep %d top %d after %v: insert kept %v (thr %v, full %v), full insert+trim %v (thr %v, full %v)",
					rep, top, l.pr.Order, in.leaves, in.thr, in.full, ref.leaves, ref.thr, ref.full)
			}
		}
	}
}
