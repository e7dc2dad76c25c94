// Cancellable order ranking with §3.3 equivalence-class pruning, the one
// exact pipeline of Rank and SearchOrders: classify the orders by integer
// placement signature (the communicator's part once per covering prefix),
// Predict one representative per class on the caller's goroutine, and emit
// from the classes sorted by bandwidth, sorting orders only within the tie
// groups emitted — no k! ranking is built. Class members share the
// prediction, so the lexicographic tie-break keeps the answer exactly that
// of evaluating and sorting every order (proven by differential test).

package advisor

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/obs"
	"repro/internal/obs/rt"
	"repro/internal/perm"
)

// RankOptions carries Rank's observability.
type RankOptions struct {
	// Registry, when non-nil, receives search observability: the
	// advisor_class_hits_total / advisor_class_misses_total counters (orders
	// served from a class representative vs. representatives evaluated) and
	// the advisor_search_seconds latency histogram. All three carry a
	// mode label ("exact" or "pruned"; the service adds "fallback" for
	// breaker-open heuristic answers it serves itself).
	Registry *obs.Registry
}

// Search modes, as labeled on the advisor metrics and reported in
// SearchResult.Mode. A search is "pruned" only when equivalence-class
// grouping actually shared evaluations; a grouping that degenerates to one
// class per order did exact work and is labeled accordingly. "fallback" is
// never produced by Rank itself: it marks the service's breaker-open
// heuristic ranking.
const (
	ModeExact    = "exact"
	ModePruned   = "pruned"
	ModeFallback = "fallback"
)

// Rank evaluates the given orders (all k! of the hierarchy when nil) and
// returns them ranked by predicted bandwidth, best first. Equal-bandwidth
// orders sort by lexicographic order permutation, so the ranking is
// deterministic across runs and safe to cache. Rank stops early and
// returns ctx.Err() when the context is cancelled.
//
// Rank prunes the search by §3.3 equivalence class: orders whose placement
// signature matches an already-grouped order share one Predict evaluation.
// On symmetric hierarchies this collapses the k! candidates to a handful
// of classes.
func Rank(ctx context.Context, sc Scenario, orders [][]int, opts RankOptions) ([]Prediction, error) {
	if err := checkCommSize(sc); err != nil {
		return nil, err
	}
	if orders == nil {
		orders = perm.All(sc.Hierarchy.Depth())
	}
	res, err := rank(ctx, sc, orders, opts.Registry, len(orders))
	if err != nil {
		return nil, err
	}
	return res.Best, nil
}

// checkCommSize is Rank's and SearchOrders' one error for a communicator
// of fewer than two ranks, which runs no collective to order.
func checkCommSize(sc Scenario) error {
	if sc.CommSize < 2 {
		return fmt.Errorf("advisor: communicator size %d: a collective needs at least 2 ranks", sc.CommSize)
	}
	return nil
}

// rank is the exact search — classify, evaluate one representative per
// class, emit — answering with the first top entries of the ranking of the
// orders and its last entry, all of them covered by one evaluation per
// class. SearchOrders runs it on all k! orders up to ExactDepth.
func rank(ctx context.Context, sc Scenario, orders [][]int, reg *obs.Registry, top int) (*SearchResult, error) {
	start := time.Now()
	n := len(orders)
	if n == 0 {
		return &SearchResult{}, nil
	}
	ctx, span := rt.StartSpan(ctx, "advisor.rank")
	span.SetAttr("orders", int64(n))
	defer span.End()

	class, first := classify(sc, orders)
	span.SetAttr("classes", int64(len(first)))
	reps, err := evalRepresentatives(ctx, sc, orders, first)
	if err != nil {
		span.SetError()
		return nil, err
	}
	res := &SearchResult{Mode: ModeExact, Evaluated: int64(len(first)), Covered: int64(n)}
	if len(first) < n {
		res.Mode = ModePruned
	}
	writeSeries(reg, res, start)
	res.Best, res.Worst = emit(orders, class, reps, top)
	return res, nil
}

// writeSeries writes one search's advisor_* series under its mode: the
// evaluations as class misses, the other orders it covered as class hits,
// and the time since start.
func writeSeries(reg *obs.Registry, res *SearchResult, start time.Time) {
	if reg == nil {
		return
	}
	ml := obs.L("mode", res.Mode)
	reg.Counter("advisor_class_misses_total", ml).AddInt(res.Evaluated)
	reg.Counter("advisor_class_hits_total", ml).AddInt(max(res.Covered-res.Evaluated, 0))
	reg.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).Observe(time.Since(start).Seconds())
}

// classify partitions the orders into §3.3 equivalence classes by integer
// placement signature (metrics.OrderSignature's, with the components the
// model reads): class[i] is order i's class, numbered by first appearance,
// and first[g] class g's first member, its representative. The
// communicator's components read only its covering prefix, so a prefix tree
// walk computes them once per prefix. Signatures are found by a verified
// fingerprint. With an input Predict rejects, every order is its own class.
func classify(sc Scenario, orders [][]int) (class []int32, first []int) {
	// Alltoall traffic depends on domain occupancy alone, so the ring
	// traversal is left out and occupancy-equivalent orders merge. The
	// world tiling is required whenever every subcommunicator runs at
	// once — even for alltoall, because distinct tilings aggregate
	// different per-domain traffic (the exhaustive differential test
	// catches the collision if this is weakened).
	ar := sc.Hierarchy.Arities()
	k, n, p := len(ar), sc.Hierarchy.Size(), sc.CommSize
	prune := p > 0 && p <= n &&
		!slices.ContainsFunc(orders, func(sigma []int) bool { return mixedradix.CheckOrder(ar, sigma) != nil })
	// tree[j·k+l] is prefix node j's child through level l (0: none; node 0
	// is the empty prefix), commOf[j] a covering node's signature id.
	tree, commOf := make([]int32, k), []int32{-1}
	var comms, classes fpIndex[int64]
	comm := make([]int64, 2*k) // pair counts, then crossings (0 unless ring)
	key := make([]int64, k+1)  // world crossings, then the communicator's id
	class = make([]int32, len(orders))
	for i, sigma := range orders {
		g := i
		if prune {
			j := 0
			for t, prod := 0, 1; prod < p; t, prod = t+1, prod*ar[sigma[t]] {
				if tree[j*k+sigma[t]] == 0 {
					tree[j*k+sigma[t]] = int32(len(commOf))
					tree, commOf = append(tree, make([]int32, k)...), append(commOf, -1)
				}
				j = int(tree[j*k+sigma[t]])
			}
			if commOf[j] < 0 {
				metrics.PairCountsPerLevelInto(comm[:k], ar, sigma, p)
				if sc.Coll != Alltoall {
					metrics.CrossingsPerLevelInto(comm[k:], ar, sigma, p)
				}
				id, _ := comms.id(fingerprint(comm), comm)
				commOf[j] = int32(id)
			}
			g = int(commOf[j]) // without the world tiling, the class
			if sc.Simultaneous {
				metrics.CrossingsPerLevelInto(key[:k], ar, sigma, n)
				key[k] = int64(g)
				g, _ = classes.id(fingerprint(key), key)
			}
		}
		if g == len(first) {
			first = append(first, i)
		}
		class[i] = int32(g)
	}
	return class, first
}

// evalRepresentatives predicts each class representative, orders[first[g]],
// with one predictor, checking ctx between classes (Order unset: emit fills
// in each entry's own).
func evalRepresentatives(ctx context.Context, sc Scenario, orders [][]int, first []int) ([]Prediction, error) {
	pd, err := newPredictor(sc)
	if err != nil {
		return nil, err
	}
	reps := make([]Prediction, len(first))
	for g, i := range first {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if reps[g], err = pd.predict(orders[i]); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// emit returns the first top entries of the ranking of the orders and its
// last entry from the class predictions: the classes sorted by bandwidth,
// best first, and within each tie group (classes of equal bandwidth) the
// members by perm.Less, sorting only the groups it emits. The last entry is
// the perm.Less-largest member of the lowest tie group.
func emit(orders [][]int, class []int32, reps []Prediction, top int) ([]Prediction, Prediction) {
	byBW := make([]int32, len(reps))
	for g := range byBW {
		byBW[g] = int32(g)
	}
	slices.SortFunc(byBW, func(a, b int32) int { return cmp.Compare(reps[b].Bandwidth, reps[a].Bandwidth) })
	// tie[g] is class g's tie group, numbered best first, and the members
	// are bucketed by it (CSR): group t's are members[start[t]:start[t+1]].
	tie, start := make([]int32, len(reps)), []int32{0}
	for j, g := range byBW {
		if j == 0 || reps[g].Bandwidth != reps[byBW[j-1]].Bandwidth {
			start = append(start, 0)
		}
		tie[g] = int32(len(start) - 2)
	}
	for _, g := range class {
		start[tie[g]+1]++
	}
	for t := 1; t < len(start); t++ {
		start[t] += start[t-1]
	}
	members, next := make([]int32, len(class)), slices.Clone(start)
	for i, g := range class {
		members[next[tie[g]]] = int32(i)
		next[tie[g]]++
	}
	entry := func(i int32) Prediction {
		pr := reps[class[i]]
		pr.Order = slices.Clone(orders[i])
		return pr
	}
	byOrder := func(a, b int32) int { return slices.Compare(orders[a], orders[b]) } // perm.Less's order
	best := make([]Prediction, 0, min(top, len(class)))
	for t := 0; len(best) < cap(best); t++ {
		group := members[start[t]:start[t+1]]
		slices.SortFunc(group, byOrder)
		for _, i := range group[:min(len(group), cap(best)-len(best))] {
			best = append(best, entry(i))
		}
	}
	return best, entry(slices.MaxFunc(members[start[len(start)-2]:], byOrder))
}
