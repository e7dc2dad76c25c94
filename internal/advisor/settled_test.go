package advisor

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perm"
	"repro/internal/topology"
)

// plainWalk is the branch-and-bound's descent without fact 3: it visits
// every node of a settled subtree one by one, and checks that the
// subtree is one class — its leaves share one Time, bounded below by the
// node's lb.
type plainWalk struct {
	tb      testing.TB
	e       *bnbEngine
	settled int   // settled subtrees walked to their end
	largest int64 // nodes in the largest of them
}

// settledClass is what the leaves of one settled subtree must share.
type settledClass struct {
	lb, time float64
	leaves   int64
}

// dfs is bnbEngine.dfs with every subtree walked node by node; class is
// the settled subtree the node lies in, nil outside one.
func (w *plainWalk) dfs(t int, class *settledClass) error {
	e := w.e
	if err := e.visit(); err != nil {
		return err
	}
	if err := e.cover(t); err != nil {
		return err
	}
	if e.isLeaf(t) {
		pr, err := e.evalLeaf(t, t)
		if err == nil && class != nil {
			if class.leaves == 0 {
				class.time = pr.Time
			}
			class.leaves++
			if pr.Time != class.time || pr.Time < class.lb {
				w.tb.Errorf("%v: leaf %v of a settled subtree predicts %v, want %v (lb %v)",
					e.ar, e.sigma, pr.Time, class.time, class.lb)
			}
		}
		return err
	}
	if t > 0 && e.inc.full && e.bound(t) > e.inc.thr {
		e.pruned += perm.Factorial(e.k - t)
		return nil
	}
	start := e.nodes
	outer := class == nil && e.settled(t)
	if outer {
		class = &settledClass{lb: e.path[t].lb}
	}
	for free := e.all &^ e.path[t].used; free != 0; free &= free - 1 {
		e.descend(t, bits.TrailingZeros32(free))
		err := w.dfs(t+1, class)
		e.ascend(t)
		if err != nil {
			return err
		}
	}
	if outer {
		w.settled++
		w.largest = max(w.largest, e.nodes-start+1)
	}
	return nil
}

// searchOutcome is what a caller observes of one search.
type searchOutcome struct {
	res      *SearchResult
	err      error
	progress []searchProgress
}

// observe runs search on a fresh engine and records its outcome.
func observe(t *testing.T, sc Scenario, top int, budget, every int64, search func(*bnbEngine) (*SearchResult, error)) searchOutcome {
	t.Helper()
	e, err := newBnbEngine(context.Background(), sc, top, budget, every)
	if err != nil {
		t.Fatal(err)
	}
	var o searchOutcome
	e.progress = func(p searchProgress) { o.progress = append(o.progress, p) }
	o.res, o.err = search(e)
	return o
}

// engineSearch is the engine's own search; plainWalk.search runs it with
// the plain walk in place of the DFS.
func engineSearch(e *bnbEngine) (*SearchResult, error) { return e.run(beamWidth) }

func (w *plainWalk) search(e *bnbEngine) (*SearchResult, error) {
	w.e = e
	return e.answer(w.dfs(0, nil), beamWidth)
}

// TestSettledSubtreeEqualsWalk holds the collapsed settled subtrees to
// the plain walk: for every divisor p > 1 of the cloud machines of depth
// 6–8 and of ⟦4,2,2,8⟧, ⟦16,2,2,8⟧, ⟦4,2,4,2,8⟧, ⟦2,3,2,2,3⟧ and
// ⟦3,3,3,2,2,2⟧, three collectives and every communicator at once, the
// node budget and two random small ones (so that cuts fall inside settled
// subtrees), each with a top of 1, 5 or 7 and a random heartbeat
// interval, the engine's result and its whole progress stream equal the
// walk's.
func TestSettledSubtreeEqualsWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var hs []topology.Hierarchy
	for d := 6; d <= 8; d++ {
		hs = append(hs, cluster.Cloud(d).Hierarchy())
	}
	for _, ar := range [][]int{{4, 2, 2, 8}, {16, 2, 2, 8}, {4, 2, 4, 2, 8}, {2, 3, 2, 2, 3}, {3, 3, 3, 2, 2, 2}} {
		hs = append(hs, topology.MustNew(ar...))
	}
	var scenarios, settled, cuts int
	for _, h := range hs {
		nodes := treeSize(h.Depth())
		for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
			for _, p := range divisorsOf(h.Size()) {
				sc := Scenario{Spec: specFor(h), Hierarchy: h, Coll: coll, CommSize: p, Simultaneous: true,
					Bytes: int64(1+rng.Intn(64)) << 16}
				scenarios++
				for i, budget := range []int64{nodeBudget, 1 + rng.Int63n(nodes), 1 + rng.Int63n(nodes)} {
					top := []int{1, 5, 7}[(scenarios+i)%3] // each budget meets each top across scenarios
					every := 1 + rng.Int63n(int64(1)<<rng.Intn(12))
					w := &plainWalk{tb: t}
					engine := observe(t, sc, top, budget, every, engineSearch)
					plain := observe(t, sc, top, budget, every, w.search)
					if !reflect.DeepEqual(engine, plain) {
						t.Fatalf("%v %s p=%d top %d budget %d every %d: the engine differs from the plain walk:\n"+
							"engine %+v\nplain  %+v", h.Arities(), coll, p, top, budget, every, engine, plain)
					}
					settled += w.settled
					if budget < nodes {
						cuts++
					}
				}
			}
		}
	}
	t.Logf("%d scenarios, %d settled subtrees walked whole, %d searches under a budget below the tree", scenarios, settled, cuts)
	if settled == 0 || cuts == 0 {
		t.Fatal("no settled subtree or no budget cut was exercised")
	}
}

// TestTreeSizeLeavesBefore checks the closed forms against a preorder
// enumeration of prefix subtrees with r ≤ 7 free levels.
func TestTreeSizeLeavesBefore(t *testing.T) {
	for r := 0; r <= 7; r++ {
		// leaf[i] reports whether preorder index i is a leaf.
		var leaf []bool
		var walk func(free int)
		walk = func(free int) {
			leaf = append(leaf, free == 0)
			for range free {
				walk(free - 1)
			}
		}
		walk(r)
		if got := treeSize(r); got != int64(len(leaf)) {
			t.Fatalf("treeSize(%d) = %d, want %d", r, got, len(leaf))
		}
		var n int64
		for i := 0; i <= len(leaf); i++ {
			if got := leavesBefore(r, int64(i)); got != n {
				t.Fatalf("leavesBefore(%d, %d) = %d, want %d", r, i, got, n)
			}
			if i < len(leaf) && leaf[i] {
				n++
			}
		}
		if n != perm.Factorial(r) {
			t.Fatalf("%d leaves for r = %d, want %d", n, r, perm.Factorial(r))
		}
	}
	if treeSize(20) <= 0 || treeSize(21) != treeSize(40) {
		t.Fatalf("treeSize does not saturate: %d, %d, %d", treeSize(20), treeSize(21), treeSize(40))
	}
}

// TestSearchCancelInSettledSubtree cancels a cloud-12 simultaneous search
// from its first heartbeat, which the settled subtrees' closed form fires:
// the search must stop with context.Canceled, having counted at most one
// settled subtree and 1024 nodes past the cancel.
func TestSearchCancelInSettledSubtree(t *testing.T) {
	sc := cloudScenario(12, Alltoall, true)
	// The plain walk measures the largest settled subtree of the search.
	w := &plainWalk{tb: t}
	observe(t, sc, 5, nodeBudget, progressEvery, w.search)
	if w.settled == 0 {
		t.Fatal("the search meets no settled subtree")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := newBnbEngine(ctx, sc, 5, nodeBudget, progressEvery)
	if err != nil {
		t.Fatal(err)
	}
	var at int64
	e.progress = func(p searchProgress) {
		if at == 0 && p.Kind == progressCoverage {
			at = p.Nodes
			cancel()
		}
	}
	if _, err := e.run(beamWidth); !errors.Is(err, context.Canceled) {
		t.Fatalf("search returned %v, want context.Canceled", err)
	}
	if at == 0 {
		t.Fatal("no heartbeat fired")
	}
	after := e.nodes - at
	t.Logf("cancelled at node %d, %d nodes counted after it; the largest settled subtree has %d", at, after, w.largest)
	if after > w.largest+1024 {
		t.Errorf("%d nodes counted after the cancel, want at most %d (one settled subtree) + 1024", after, w.largest)
	}
}
