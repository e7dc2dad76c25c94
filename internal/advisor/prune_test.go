package advisor

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/topology"
)

// TestRankPrunedEqualsFull is the exactness proof of the equivalence-class
// fast path: for every combination of hierarchy shape × collective ×
// communicator size (every divisor) × one-vs-all-comms, the pruned ranking
// must be identical — order by order, value by value — to everyOrder's,
// which predicts every candidate. The coarse collective-aware signature
// (pairs-only for alltoall, no world component) relies on this test, so it
// is exhaustive rather than sampled.
func TestRankPrunedEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	colls := []Collective{Alltoall, Allgather, Allreduce}
	shapes := [][]int{
		{2, 2, 4},
		{2, 2, 2, 2},
		{4, 2, 2, 2},
		{2, 3, 2, 2},
		{2, 2, 2, 2, 2},
		{16, 2, 2, 8},
	}
	for _, ar := range shapes {
		h := topology.MustNew(ar...)
		// Depth-5 shapes need the five-level LUMI spec: the bus level of the
		// four-level Hydra spec would not line up and every prediction with a
		// fully packed communicator would be degenerate.
		spec := cluster.Hydra(16, 1)
		if h.Depth() == 5 {
			spec = cluster.LUMI(16)
		}
		for _, coll := range colls {
			for _, sim := range []bool{false, true} {
				for _, p := range divisorsOf(h.Size()) {
					sc := Scenario{
						Spec:         spec,
						Hierarchy:    h,
						Coll:         coll,
						CommSize:     p,
						Simultaneous: sim,
						Bytes:        int64(1+rng.Intn(64)) << 16,
					}
					full := everyOrder(t, sc)
					pruned, err := Rank(context.Background(), sc, nil, RankOptions{})
					if err != nil {
						t.Fatalf("pruned rank (%v, %s, p=%d): %v", ar, coll, p, err)
					}
					if len(full) != len(pruned) {
						t.Fatalf("length mismatch: %d vs %d", len(full), len(pruned))
					}
					for i := range full {
						if !perm.Equal(full[i].Order, pruned[i].Order) {
							t.Fatalf("rank %d order mismatch (%v, %s, p=%d, sim=%v): full %v pruned %v",
								i, ar, coll, p, sim, full[i].Order, pruned[i].Order)
						}
						if full[i].Bandwidth != pruned[i].Bandwidth || full[i].Time != pruned[i].Time ||
							full[i].BottleneckLevel != pruned[i].BottleneckLevel {
							t.Fatalf("rank %d value mismatch for order %v (%v, %s, p=%d, sim=%v): full %+v pruned %+v",
								i, full[i].Order, ar, coll, p, sim, full[i], pruned[i])
						}
					}
				}
			}
		}
	}
}

// everyOrder is the ranking without classes: Predict on each of the k!
// orders, sorted by bandwidth, best first, and then by perm.Less.
func everyOrder(t *testing.T, sc Scenario) []Prediction {
	t.Helper()
	var ranked []Prediction
	for _, sigma := range perm.All(sc.Hierarchy.Depth()) {
		pr, err := Predict(sc, sigma)
		if err != nil {
			t.Fatalf("predict %v (%v, %s, p=%d): %v", sigma, sc.Hierarchy.Arities(), sc.Coll, sc.CommSize, err)
		}
		ranked = append(ranked, pr)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Bandwidth != ranked[j].Bandwidth {
			return ranked[i].Bandwidth > ranked[j].Bandwidth
		}
		return perm.Less(ranked[i].Order, ranked[j].Order)
	})
	return ranked
}

func divisorsOf(n int) []int {
	var out []int
	for d := 2; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// TestRankRecordsSearchMetrics checks the obs wiring: a pruned search on a
// symmetric hierarchy must report far fewer class misses (evaluations)
// than candidates, and observe one search latency sample; the exact search
// of SearchOrders reports the same mode and counts in its result.
func TestRankRecordsSearchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	h := topology.MustNew(2, 2, 2, 2)
	sc := Scenario{
		Spec:      cluster.Hydra(16, 1),
		Hierarchy: h,
		Coll:      Alltoall,
		CommSize:  4,
		Bytes:     1 << 20,
	}
	ranked, err := Rank(context.Background(), sc, nil, RankOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 24 {
		t.Fatalf("got %d predictions, want 24", len(ranked))
	}
	// Class sharing collapsed the symmetric search, so everything is
	// labeled mode="pruned"; the unlabeled series must not exist.
	ml := obs.L("mode", ModePruned)
	hits := reg.FindCounter("advisor_class_hits_total", ml)
	misses := reg.FindCounter("advisor_class_misses_total", ml)
	if hits+misses != 24 {
		t.Fatalf("pruned hits %v + misses %v != 24 orders", hits, misses)
	}
	if misses >= 24 {
		t.Fatalf("no pruning on a fully symmetric hierarchy: %v misses", misses)
	}
	if hits == 0 {
		t.Fatalf("expected class hits on a symmetric hierarchy")
	}
	if unlabeled := reg.FindCounter("advisor_class_hits_total"); unlabeled != 0 {
		t.Fatalf("unlabeled class-hit counter exists: %v", unlabeled)
	}
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name == "advisor_search_seconds" && p.Type == "histogram" && p.Count == 1 {
			if !hasModeLabel(p.Labels, ModePruned) {
				t.Fatalf("search histogram missing mode label: %+v", p)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("advisor_search_seconds histogram not observed: %+v", reg.Snapshot())
	}
	res, err := SearchOrders(context.Background(), sc, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModePruned || res.Covered != 24 || float64(res.Evaluated) != misses {
		t.Fatalf("search mode %q covered %d evaluated %d, want pruned, 24 and %v", res.Mode, res.Covered, res.Evaluated, misses)
	}
}

func hasModeLabel(labels []obs.Label, mode string) bool {
	for _, l := range labels {
		if l.Key == "mode" && l.Value == mode {
			return true
		}
	}
	return false
}

// TestRankExactModeWhenNoSharing verifies the mode semantics: a search
// whose orders are each their own class — Allgather over 16 ranks of
// ⟦4,8⟧ and ⟦2,2,8⟧ — reports mode="exact", never "pruned".
func TestRankExactModeWhenNoSharing(t *testing.T) {
	for _, h := range []topology.Hierarchy{topology.MustNew(4, 8), topology.MustNew(2, 2, 8)} {
		reg := obs.NewRegistry()
		sc := Scenario{
			Spec:      cluster.Hydra(16, 1),
			Hierarchy: h,
			Coll:      Allgather,
			CommSize:  16,
			Bytes:     8 << 20,
		}
		n := perm.Factorial(h.Depth())
		if groups := classGroups(sc, perm.All(h.Depth())); int64(len(groups)) != n {
			t.Fatalf("%v: %d classes of %d orders, want a scenario whose orders share none", h.Arities(), len(groups), n)
		}
		res, err := SearchOrders(context.Background(), sc, SearchOptions{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != ModeExact || res.Evaluated != n || res.Covered != n {
			t.Fatalf("%v: search mode %q evaluated %d covered %d, want exact and %d of each", h.Arities(), res.Mode, res.Evaluated, res.Covered, n)
		}
		ml := obs.L("mode", ModeExact)
		if misses := reg.FindCounter("advisor_class_misses_total", ml); misses != float64(n) {
			t.Fatalf("%v: exact-mode misses = %v, want %d", h.Arities(), misses, n)
		}
		if hits := reg.FindCounter("advisor_class_hits_total", ml); hits != 0 {
			t.Fatalf("%v: exact-mode hits = %v, want 0", h.Arities(), hits)
		}
	}
}
