package advisor

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perm"
	"repro/internal/topology"
)

func cloudScenario(depth int, coll Collective, sim bool) Scenario {
	spec := cluster.Cloud(depth)
	return Scenario{Spec: spec, Hierarchy: spec.Hierarchy(), Coll: coll, CommSize: 16, Simultaneous: sim, Bytes: 256 << 20}
}

// TestPredictorAllocationFree: once built, a predictor evaluates an order
// without touching the heap — one communicator or all 512 of them, in
// closed form (the cloud boxes) or walked (⟦2,3,2⟧ at p=3, no box) — and
// one that has only answered boxes holds none of the walk's tables.
func TestPredictorAllocationFree(t *testing.T) {
	cloud := []int{11, 3, 7, 0, 1, 2, 4, 5, 6, 8, 9, 10}
	walked := Scenario{Spec: cluster.Cloud(6), Hierarchy: topology.MustNew(2, 3, 2), Coll: Allgather, CommSize: 3,
		Simultaneous: true, Bytes: 256 << 20}
	for _, tc := range []struct {
		sc    Scenario
		sigma []int
		box   bool
	}{
		{cloudScenario(12, Alltoall, false), cloud, true}, {cloudScenario(12, Allreduce, false), cloud, true},
		{cloudScenario(12, Allgather, true), cloud, true}, {walked, []int{0, 1, 2}, false},
	} {
		sc := tc.sc
		pd, err := newPredictor(sc)
		if err != nil {
			t.Fatal(err)
		}
		if pd.box(tc.sigma) != tc.box {
			t.Fatalf("%v p=%d: box = %v, want %v", sc.Hierarchy.Arities(), sc.CommSize, !tc.box, tc.box)
		}
		if _, err := pd.predict(tc.sigma); err != nil { // warm the touched lists
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pd.predict(tc.sigma); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v %s sim=%v: a warmed prediction allocates %.1f times, want 0",
				sc.Hierarchy.Arities(), sc.Coll, sc.Simultaneous, allocs)
		}
		if held := walkTables(pd); held == tc.box {
			t.Errorf("%v %s sim=%v: walk tables held = %v, want %v", sc.Hierarchy.Arities(), sc.Coll, sc.Simultaneous, held, !tc.box)
		}
	}
}

// walkTables reports whether the predictor holds any of the walk's tables.
func walkTables(pd *predictor) bool {
	held := pd.cores != nil || pd.occ != nil || pd.out != nil || pd.seen != nil || pd.bus.bytes != nil
	for _, ll := range pd.levels {
		held = held || ll.bytes != nil
	}
	return held
}

// TestSearchNodesAllocationFree pins the per-node cost of the bounded
// search where the node budget is burnt, with every communicator running
// at once. Below a covering prefix that has used a level outer to every
// free one, the subtree is settled (fact 3) and collapsed: its canonical
// completion walked and evaluated, its next completions filed with the
// shared prediction and the rest counted in closed form. Below one that
// has not, the subtree is walked node by node — interior nodes that only
// compare the carried-down bound, full-order leaves that hit the memo and
// tie the incumbents without reaching the answer — until its nodes settle
// too. Both, and a subtree pruned at its root, are searched without a
// single allocation, and searching them again changes neither the
// evaluations nor the incumbents.
func TestSearchNodesAllocationFree(t *testing.T) {
	e, err := newBnbEngine(context.Background(), cloudScenario(10, Alltoall, true), 5, nodeBudget, progressEvery)
	if err != nil {
		t.Fatal(err)
	}
	// subtree searches below the given path, reached by hand through the
	// search's own step, and reports whether the path's node is settled:
	// the first communicator is picked up where the path covers it, and the
	// way back up undoes the world profile, so the next search starts from
	// the root again.
	subtree := func(path []int) bool {
		for depth, l := range path {
			if err := e.cover(depth); err != nil {
				t.Fatal(err)
			}
			e.descend(depth, l)
		}
		if e.path[len(path)].id < 0 {
			t.Fatal("no proper prefix of the path covers the communicator: nothing was carried down")
		}
		settled := e.settled(len(path))
		if err := e.dfs(len(path)); err != nil {
			t.Fatal(err)
		}
		for depth := len(path) - 1; depth >= 0; depth-- {
			e.ascend(depth)
		}
		return settled
	}
	// The best orders of this scenario start 6-7-8-9-0-1-2 and the worst
	// 0-1-2-3-4-5-6: once the incumbents hold the former, the latter's
	// subtree is pruned at its root, and each leaf below the sibling
	// 6-7-8-9-0-1-3 ties the last incumbent's bandwidth but sorts after it.
	// 6-7-8-9-1-2-3 has not used level 0, which is still free.
	if !subtree([]int{6, 7, 8, 9, 0, 1, 2}) {
		t.Fatal("the subtree below 6-7-8-9-0-1-2 is not settled")
	}
	tie, worst, walked := []int{6, 7, 8, 9, 0, 1, 3}, []int{0, 1, 2, 3, 4, 5, 6}, []int{6, 7, 8, 9, 1, 2, 3}
	subtree(tie) // its memo misses, as do some below walked
	subtree(worst)
	if subtree(walked) {
		t.Fatal("the subtree below 6-7-8-9-1-2-3 is settled")
	}
	last := e.inc.leaves[len(e.inc.leaves)-1]
	leaf := append(slices.Clone(tie), 2, 4, 5)
	for more := true; more; more = nextPermutation(leaf[len(tie):]) {
		pr, err := e.pd.predict(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Bandwidth != last.pr.Bandwidth || !perm.Less(last.pr.Order, leaf) {
			t.Fatalf("leaf %v does not tie behind the last incumbent %v", leaf, last.pr.Order)
		}
	}
	nodes, evals, covered := e.nodes, e.evals, e.covered
	held := slices.Clone(e.inc.leaves)
	allocs := testing.AllocsPerRun(10, func() { subtree(tie); subtree(worst); subtree(walked) })
	if allocs != 0 {
		t.Errorf("warmed subtrees of %d nodes allocate %.1f times, want 0", (e.nodes-nodes)/11, allocs)
	}
	if e.covered == covered {
		t.Error("searching again reached no leaf")
	}
	if e.evals != evals || !reflect.DeepEqual(e.inc.leaves, held) || !e.inc.full {
		t.Errorf("searching the subtrees again changed the search: %d more orders evaluated, incumbents %v → %v",
			e.evals-evals, held, e.inc.leaves)
	}
}

// TestSearchExactAllocs: the exhaustive walk of a depth-7 machine pays
// per search, not per order — its tables' doublings and its answer, where
// building and sorting the k! ranking cost over 20 000. It runs on its
// caller's goroutine with one predictor, so it allocates the same at any
// GOMAXPROCS.
func TestSearchExactAllocs(t *testing.T) {
	for _, sc := range []Scenario{
		cloudScenario(7, Alltoall, false), cloudScenario(7, Alltoall, true), cloudScenario(7, Allreduce, false),
	} {
		search := func() {
			if _, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 5}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, search)
		t.Logf("%s sim=%v: %.0f allocations per search", sc.Coll, sc.Simultaneous, allocs)
		if allocs >= 2000 {
			t.Errorf("%s sim=%v: a search allocates %.0f times, want fewer than 2000", sc.Coll, sc.Simultaneous, allocs)
		}
		if one, four := mallocsAt(1, search), mallocsAt(4, search); one != four {
			t.Errorf("%s sim=%v: a search allocates %d times at GOMAXPROCS 1, %d at 4", sc.Coll, sc.Simultaneous, one, four)
		}
	}
}

// TestSearchDeepAllocs pins the allocations of the search_deep shapes
// exactly. The first communicator's signatures are interned in one byte
// arena and their predictions sit in one table indexed by id, the
// incumbents' orders reuse dropped buffers or come from an arena, and the
// beam carves each level's candidates from one of two arenas, so a search
// allocates its tables' doublings and its answer, not once per signature
// (d12 allreduce interns 5 720), leaf or beam candidate. The ceilings are
// the counts measured, read as the fewest of five searches.
func TestSearchDeepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ceiling := map[string]uint64{"d8-alltoall": 56, "d10-alltoall": 65, "d12-alltoall": 77, "d12-allreduce": 69,
		"d10-alltoall-sim": 125, "d12-alltoall-sim": 112}
	for _, s := range deepShapes {
		sc := cloudScenario(s.depth, s.coll, s.sim)
		allocs := mallocsAt(1, func() {
			if _, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 5}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d allocations per search", s.name, allocs)
		if want, ok := ceiling[s.name]; !ok || allocs > want {
			t.Errorf("%s: a search allocates %d times, want at most %d", s.name, allocs, want)
		}
	}
}

// mallocsAt reports the fewest heap allocations of five calls of f at the
// given GOMAXPROCS, read from the runtime's statistics, since
// testing.AllocsPerRun pins GOMAXPROCS to 1. A stray allocation elsewhere
// only raises a call's count, so the fewest is f's own.
func mallocsAt(procs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
