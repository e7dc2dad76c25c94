package advisor

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

func rankScenario() Scenario {
	spec := cluster.Hydra(4, 1)
	return Scenario{
		Spec:         spec,
		Hierarchy:    spec.Hierarchy(),
		Coll:         Alltoall,
		CommSize:     16,
		Simultaneous: true,
		Bytes:        16 << 20,
	}
}

// A cancelled context aborts the evaluation with the context's error.
func TestRankCancelled(t *testing.T) {
	sc := rankScenario()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Rank(ctx, sc, nil, RankOptions{}); err != context.Canceled {
		t.Fatalf("Rank on cancelled context: err = %v, want context.Canceled", err)
	}
}

// When every order predicts the same time (pure-latency machine, one
// communicator spanning the whole machine), the ranking must fall back to
// lexicographic order of the permutations — deterministic and cacheable.
func TestRankTiesAreLexicographic(t *testing.T) {
	h := topology.MustNew(2, 2, 2, 2)
	spec := netmodel.Spec{
		Name: "latency-only",
		Levels: []netmodel.LevelSpec{
			{Name: "node", Arity: 2, Latency: 1e-6},
			{Name: "socket", Arity: 2, Latency: 1e-6},
			{Name: "numa", Arity: 2, Latency: 1e-6},
			{Name: "core", Arity: 2, Latency: 1e-6},
		},
	}
	sc := Scenario{
		Spec:      spec,
		Hierarchy: h,
		Coll:      Alltoall,
		CommSize:  h.Size(),
		Bytes:     1 << 20,
	}
	ranked, err := Rank(context.Background(), sc, nil, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(ranked); i++ {
		if ranked[i].Bandwidth == ranked[i+1].Bandwidth &&
			!perm.Less(ranked[i].Order, ranked[i+1].Order) {
			t.Fatalf("tied orders out of lexicographic order at %d: %v before %v",
				i, ranked[i].Order, ranked[i+1].Order)
		}
	}
}

// classGroups is the search's class oracle: the order indices partitioned into
// §3.3 equivalence classes by metrics.OrderSignature, keyed by its string,
// in first-appearance order; nil when any signature fails to compute.
func classGroups(sc Scenario, orders [][]int) [][]int {
	sigOpts := metrics.SignatureOpts{
		Ring:  sc.Coll != Alltoall,
		World: sc.Simultaneous,
	}
	byKey := make(map[string]int, len(orders))
	var groups [][]int
	for i, sigma := range orders {
		sig, err := metrics.OrderSignature(sc.Hierarchy, sigma, sc.CommSize, sigOpts)
		if err != nil {
			return nil
		}
		g, ok := byKey[sig.Key()]
		if !ok {
			byKey[sig.Key()] = len(groups)
			groups = append(groups, []int{i})
			continue
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// rankOracle builds the exhaustive ranking directly: one prediction per
// classGroups class, fanned out to every order, and all k! sorted by
// bandwidth with the perm.Less tie-break.
func rankOracle(t *testing.T, sc Scenario) ([]Prediction, [][]int) {
	t.Helper()
	orders := perm.All(sc.Hierarchy.Depth())
	groups := classGroups(sc, orders)
	var ranked []Prediction
	for _, members := range groups {
		pr, err := Predict(sc, orders[members[0]])
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range members {
			pr.Order = slices.Clone(orders[i])
			ranked = append(ranked, pr)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Bandwidth != ranked[j].Bandwidth {
			return ranked[i].Bandwidth > ranked[j].Bandwidth
		}
		return perm.Less(ranked[i].Order, ranked[j].Order)
	})
	return ranked, groups
}

// TestSearchExactEqualsRank: the exhaustive walk answers exactly what the
// exhaustive ranking does — the head of the full ranking, its last entry,
// the mode and the evaluated and covered counts — for every shape of
// TestRankPrunedEqualsFull, the cloud machine at depth 6 and 7 and
// ⟦4,2,4,2,8⟧ on LUMI, under every collective, one and all communicators
// and every divisor, with Top 1, 5 and k!+1, with the real fingerprint
// multipliers and with all-zero ones, under which every key collides.
// Nodes, which the ranking does not count, is TestSearchExactNodes'.
func TestSearchExactEqualsRank(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	type machine struct {
		spec netmodel.Spec
		h    topology.Hierarchy
	}
	var machines []machine
	for _, ar := range [][]int{{2, 2, 4}, {2, 2, 2, 2}, {4, 2, 2, 2}, {2, 3, 2, 2}, {2, 2, 2, 2, 2}, {16, 2, 2, 8}} {
		spec := cluster.Hydra(16, 1)
		if len(ar) == 5 {
			spec = cluster.LUMI(16)
		}
		machines = append(machines, machine{spec, topology.MustNew(ar...)})
	}
	for _, depth := range []int{6, 7} {
		spec := cluster.Cloud(depth)
		machines = append(machines, machine{spec, spec.Hierarchy()})
	}
	machines = append(machines, machine{cluster.LUMI(4), topology.MustNew(4, 2, 4, 2, 8)})
	orig := fpMul
	defer func() { fpMul = orig }()
	for _, m := range machines {
		orders := perm.All(m.h.Depth())
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, sim := range []bool{false, true} {
				for _, p := range divisorsOf(m.h.Size()) {
					sc := Scenario{Spec: m.spec, Hierarchy: m.h, Coll: coll, CommSize: p, Simultaneous: sim,
						Bytes: int64(1+rng.Intn(64)) << 16}
					ranked, groups := rankOracle(t, sc)
					mode := ModeExact
					if len(groups) < len(orders) {
						mode = ModePruned
					}
					for _, mul := range [][33]uint64{orig, {}} {
						fpMul = mul
						for _, top := range []int{1, 5, len(orders) + 1} {
							res, err := SearchOrders(context.Background(), sc, SearchOptions{Top: top})
							if err != nil {
								t.Fatal(err)
							}
							want := &SearchResult{
								Best:      ranked[:min(top, len(ranked))],
								Worst:     ranked[len(ranked)-1],
								Mode:      mode,
								Evaluated: int64(len(groups)),
								Covered:   int64(len(orders)),
								Nodes:     res.Nodes,
							}
							if !reflect.DeepEqual(res, want) {
								t.Fatalf("%v %s p=%d sim=%v top=%d zero-mul=%v: search %+v, exhaustive ranking %+v",
									m.h.Arities(), coll, p, sim, top, mul == [33]uint64{}, res, want)
							}
						}
					}
					fpMul = orig
				}
			}
		}
	}
}

// TestSearchExactNodes: the exhaustive walk reports the prefix-tree nodes
// it visits. With one communicator those are the prefixes none of whose
// proper prefixes covers it — the root, the prefixes that do not cover it
// and the covering leaves just below them — collected here from every
// order; with every communicator at once, all treeSize(k) prefixes, the
// settled subtrees counted in closed form.
func TestSearchExactNodes(t *testing.T) {
	for _, spec := range []netmodel.Spec{cluster.Hydra(16, 1), cluster.LUMI(16), cluster.Cloud(6), cluster.Cloud(7)} {
		h := spec.Hierarchy()
		ar, k := h.Arities(), h.Depth()
		for _, p := range divisorsOf(h.Size()) {
			prefixes := map[string]bool{}
			for _, sigma := range perm.All(k) {
				for t, prod := 0, 1; t <= k; t++ {
					prefixes[perm.Format(sigma[:t])] = true
					if t == k || prod >= p {
						break
					}
					prod *= ar[sigma[t]]
				}
			}
			for _, coll := range []Collective{Alltoall, Allgather} {
				for _, sim := range []bool{false, true} {
					sc := Scenario{Spec: spec, Hierarchy: h, Coll: coll, CommSize: p, Simultaneous: sim, Bytes: 1 << 20}
					res, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 3})
					if err != nil {
						t.Fatal(err)
					}
					want := int64(len(prefixes))
					if sim {
						want = treeSize(k)
					}
					if res.Nodes != want {
						t.Errorf("%v %s p=%d sim=%v: %d nodes, want %d", ar, coll, p, sim, res.Nodes, want)
					}
				}
			}
		}
	}
}
