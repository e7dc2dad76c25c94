// Chunked, cancellable order ranking with §3.3 equivalence-class pruning,
// the one exact pipeline of Rank and SearchOrders: classify the orders by
// integer placement signature (the communicator's part once per covering
// prefix), Predict one representative per class on a bounded worker pool,
// and emit from the classes sorted by bandwidth, sorting orders only within
// the tie groups emitted — no k! ranking is built. Class members share the
// prediction, so the lexicographic tie-break keeps the answer exactly that
// of evaluating and sorting every order (proven by differential test).

package advisor

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/obs"
	"repro/internal/obs/rt"
	"repro/internal/perm"
)

// RankOptions bounds the parallel evaluation of Rank.
type RankOptions struct {
	// Workers is the number of evaluation goroutines; 0 means GOMAXPROCS.
	Workers int
	// NoPrune disables the equivalence-class fast path and evaluates every
	// order. The ranking is identical either way; the flag exists for
	// benchmarks and differential tests.
	NoPrune bool
	// Registry, when non-nil, receives search observability: the
	// advisor_class_hits_total / advisor_class_misses_total counters (orders
	// served from a class representative vs. representatives evaluated) and
	// the advisor_search_seconds latency histogram. All three carry a
	// mode label ("exact" or "pruned"; the service adds "fallback" for
	// breaker-open heuristic answers it serves itself).
	Registry *obs.Registry
	// OnStats, when non-nil, receives one RankStats per completed search.
	OnStats func(RankStats)
}

// Search modes, as labeled on the advisor metrics and reported through
// RankStats. A search is "pruned" only when equivalence-class grouping
// actually shared evaluations; a grouping that degenerates to one class
// per order did exact work and is labeled accordingly. "fallback" is
// never produced by Rank itself: it marks the service's breaker-open
// heuristic ranking.
const (
	ModeExact    = "exact"
	ModePruned   = "pruned"
	ModeFallback = "fallback"
)

// RankStats summarizes one completed search.
type RankStats struct {
	// Mode is ModeExact or ModePruned from Rank; SearchOrders reports
	// ModeBnB or ModeBeam too.
	Mode string
	// Orders is the candidate count, Classes the evaluations performed.
	Orders, Classes int
	// Elapsed is the wall-clock search duration.
	Elapsed time.Duration
}

func (o RankOptions) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, n), 1)
}

// Rank evaluates the given orders (all k! of the hierarchy when nil) with a
// bounded worker pool and returns them ranked by predicted bandwidth, best
// first. Equal-bandwidth orders sort by lexicographic order permutation, so
// the ranking is deterministic across runs and safe to cache. Rank stops
// early and returns ctx.Err() when the context is cancelled.
//
// Unless opts.NoPrune is set, Rank prunes the search by §3.3 equivalence
// class: orders whose placement signature matches an already-grouped order
// share one Predict evaluation. On symmetric hierarchies this collapses
// the k! candidates to a handful of classes.
func Rank(ctx context.Context, sc Scenario, orders [][]int, opts RankOptions) ([]Prediction, error) {
	if orders == nil {
		orders = perm.All(sc.Hierarchy.Depth())
	}
	res, err := rank(ctx, sc, orders, opts, len(orders))
	if err != nil {
		return nil, err
	}
	return res.Best, nil
}

// rank is the exact search — classify, evaluate one representative per
// class, emit — answering with the first top entries of the ranking of the
// orders and its last entry, all of them covered by one evaluation per
// class. SearchOrders runs it on all k! orders up to ExactDepth.
func rank(ctx context.Context, sc Scenario, orders [][]int, opts RankOptions, top int) (*SearchResult, error) {
	start := time.Now()
	n := len(orders)
	if n == 0 {
		return &SearchResult{}, nil
	}
	ctx, span := rt.StartSpan(ctx, "advisor.rank")
	span.SetAttr("orders", int64(n))
	defer span.End()

	class, first := classify(sc, orders, !opts.NoPrune && n > 1)
	classes := len(first)
	span.SetAttr("classes", int64(classes))
	reps := make([]Prediction, classes)
	if err := evalRepresentatives(ctx, sc, orders, first, reps, opts); err != nil {
		span.SetError()
		return nil, err
	}
	mode := ModeExact
	if classes < n {
		mode = ModePruned
	}
	if opts.Registry != nil {
		ml := obs.L("mode", mode)
		opts.Registry.Counter("advisor_class_misses_total", ml).AddInt(int64(classes))
		opts.Registry.Counter("advisor_class_hits_total", ml).AddInt(int64(n - classes))
		opts.Registry.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).
			Observe(time.Since(start).Seconds())
	}
	if opts.OnStats != nil {
		opts.OnStats(RankStats{Mode: mode, Orders: n, Classes: classes, Elapsed: time.Since(start)})
	}
	best, worst := emit(orders, class, reps, top)
	return &SearchResult{Best: best, Worst: worst, Mode: mode, Evaluated: int64(classes), Covered: int64(n)}, nil
}

// classify partitions the orders into §3.3 equivalence classes by integer
// placement signature (metrics.OrderSignature's, with the components the
// model reads): class[i] is order i's class, numbered by first appearance,
// and first[g] class g's first member, its representative. The
// communicator's components read only its covering prefix, so a prefix tree
// walk computes them once per prefix. Signatures are found by a verified
// fingerprint. Without pruning, or with an input Predict rejects, every
// order is its own class.
func classify(sc Scenario, orders [][]int, prune bool) (class []int32, first []int) {
	// Alltoall traffic depends on domain occupancy alone, so the ring
	// traversal is left out and occupancy-equivalent orders merge. The
	// world tiling is required whenever every subcommunicator runs at
	// once — even for alltoall, because distinct tilings aggregate
	// different per-domain traffic (the exhaustive differential test
	// catches the collision if this is weakened).
	ar := sc.Hierarchy.Arities()
	k, n, p := len(ar), sc.Hierarchy.Size(), sc.CommSize
	prune = prune && p > 0 && p <= n &&
		!slices.ContainsFunc(orders, func(sigma []int) bool { return mixedradix.CheckOrder(ar, sigma) != nil })
	// tree[j·k+l] is prefix node j's child through level l (0: none; node 0
	// is the empty prefix), commOf[j] a covering node's signature id.
	tree, commOf := make([]int32, k), []int32{-1}
	comms, classes := fpIndex[int64]{byFP: map[uint64]int32{}}, fpIndex[int64]{byFP: map[uint64]int32{}}
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
// on the bounded worker pool, one predictor per worker, writing into reps
// (Order unset: emit fills in each entry's own).
func evalRepresentatives(ctx context.Context, sc Scenario, orders [][]int, first []int, reps []Prediction, opts RankOptions) error {
	n := len(first)
	workers := opts.workers(n)
	// ~4 chunks per worker, so stragglers rebalance and cancellation is
	// noticed between chunks.
	chunk := max(n/(4*workers), 1)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type unit struct{ lo, hi int }
	units := make(chan unit)
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err })
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pd, err := newPredictor(sc)
			if err != nil {
				fail(err)
				return
			}
			for u := range units {
				// One span per chunk keeps trace volume proportional to the
				// work units, not the k! candidate orders.
				_, span := rt.StartSpan(ctx, "advisor.chunk")
				span.SetAttr("lo", int64(u.lo))
				span.SetAttr("classes", int64(u.hi-u.lo))
				for g := u.lo; g < u.hi; g++ {
					if ctx.Err() != nil {
						span.End()
						return
					}
					pr, err := pd.predict(orders[first[g]])
					if err != nil {
						span.SetError()
						span.End()
						fail(err)
						return
					}
					reps[g] = pr
				}
				span.End()
			}
		}()
	}
feed:
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		select {
		case units <- unit{lo, hi}:
		case <-ctx.Done():
			break feed
		}
	}
	close(units)
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
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
