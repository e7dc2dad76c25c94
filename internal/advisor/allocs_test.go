package advisor

import (
	"context"
	"testing"

	"repro/internal/cluster"
)

func cloudScenario(depth int, coll Collective, sim bool) Scenario {
	spec := cluster.Cloud(depth)
	return Scenario{Spec: spec, Hierarchy: spec.Hierarchy(), Coll: coll, CommSize: 16, Simultaneous: sim, Bytes: 256 << 20}
}

// TestPredictorAllocationFree: once built, a predictor evaluates an order
// without touching the heap — one communicator or all 512 of them.
func TestPredictorAllocationFree(t *testing.T) {
	sigma := []int{11, 3, 7, 0, 1, 2, 4, 5, 6, 8, 9, 10}
	for _, sc := range []Scenario{
		cloudScenario(12, Alltoall, false), cloudScenario(12, Allreduce, false), cloudScenario(12, Allgather, true),
	} {
		pd, err := newPredictor(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pd.predict(sigma); err != nil { // warm the touched lists
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pd.predict(sigma); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s sim=%v: a warmed prediction allocates %.1f times, want 0", sc.Coll, sc.Simultaneous, allocs)
		}
	}
}

// TestSearchNodesAllocationFree pins the per-node cost of the bounded
// search where the node budget is burnt: with every communicator running
// at once, a subtree below a covering prefix — interior nodes that only
// compare the carried-down bound, full-order leaves that hit the memo and
// cannot reach the answer — is walked without a single allocation.
func TestSearchNodesAllocationFree(t *testing.T) {
	e, err := newBnbEngine(context.Background(), cloudScenario(10, Alltoall, true), 5, DefaultNodeBudget)
	if err != nil {
		t.Fatal(err)
	}
	// subtree walks the search below the given path, reached by hand:
	// the first communicator is picked up where the path covers it.
	subtree := func(path []int) {
		var fc firstComm
		var used uint32
		prod := 1
		for depth, l := range path {
			if fc, err = e.cover(depth, used, prod, fc); err != nil {
				t.Fatal(err)
			}
			e.sigma[depth], used, prod = l, used|1<<uint(l), prod*e.ar[l]
		}
		if err := e.dfs(len(path), used, prod, fc); err != nil {
			t.Fatal(err)
		}
		if len(fc.key) == 0 && prod >= e.p {
			t.Fatal("the path's own node covers the communicator: nothing was carried down")
		}
	}
	// The best orders of this scenario start 6-7-8-9-0-1-2 and the worst
	// 0-1-2-3-4-5-6: once the incumbents hold the former, no leaf below
	// the latter can reach the answer.
	subtree([]int{6, 7, 8, 9, 0, 1, 2})
	worst := []int{0, 1, 2, 3, 4, 5, 6}
	subtree(worst) // its memo misses
	nodes, evals, held := e.nodes, e.evals, len(e.inc.leaves)
	allocs := testing.AllocsPerRun(10, func() { subtree(worst) })
	if allocs != 0 {
		t.Errorf("a warmed subtree of %d nodes allocates %.1f times, want 0", (e.nodes-nodes)/11, allocs)
	}
	if e.evals != evals || len(e.inc.leaves) != held || !e.inc.full {
		t.Errorf("re-walking the subtree changed the search: %d more orders evaluated, %d → %d incumbents",
			e.evals-evals, held, len(e.inc.leaves))
	}
}
