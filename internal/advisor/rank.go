// Chunked, cancellable order ranking with §3.3 equivalence-class pruning:
// candidate orders are first grouped by their integer placement signature
// (metrics.OrderSignature, O(k²) per order), the expensive analytic
// Predict runs once per class representative on a bounded worker pool,
// and the result fans out to every member of the class. Orders in the
// same class place the communicator identically, so they receive the same
// prediction; the lexicographic tie-break keeps the final ranking exactly
// equal to evaluating every order (proven by differential test).

package advisor

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
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
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
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
	out, _, err := rank(ctx, sc, orders, opts)
	return out, err
}

// searchExact is SearchOrders up to ExactDepth: the head and the true
// last entry of the exhaustive ranking, accounted as all k! orders
// covered by one evaluation per class.
func searchExact(ctx context.Context, sc Scenario, opts SearchOptions) (*SearchResult, error) {
	ranked, st, err := rank(ctx, sc, nil, RankOptions{Registry: opts.Registry, OnStats: opts.OnStats})
	if err != nil {
		return nil, err
	}
	return &SearchResult{
		Best:      ranked[:min(opts.Top, len(ranked))],
		Worst:     ranked[len(ranked)-1],
		Mode:      st.Mode,
		Evaluated: int64(st.Classes),
		Covered:   int64(st.Orders),
	}, nil
}

// rank is Rank, also returning the stats it reports through OnStats.
func rank(ctx context.Context, sc Scenario, orders [][]int, opts RankOptions) ([]Prediction, RankStats, error) {
	start := time.Now()
	if orders == nil {
		orders = perm.All(sc.Hierarchy.Depth())
	}
	n := len(orders)
	if n == 0 {
		return nil, RankStats{}, nil
	}
	ctx, span := rt.StartSpan(ctx, "advisor.rank")
	span.SetAttr("orders", int64(n))
	defer span.End()

	// groups[g] lists the indices of orders sharing one signature; the
	// first member is the class representative. A nil grouping (pruning
	// disabled, or a signature error to be re-reported by Predict) makes
	// every order its own class.
	var groups [][]int
	if !opts.NoPrune && n > 1 {
		groups = classGroups(sc, orders)
	}
	if groups == nil {
		groups = make([][]int, n)
		for i := range groups {
			groups[i] = []int{i}
		}
	}

	span.SetAttr("classes", int64(len(groups)))
	reps := make([]Prediction, len(groups))
	if err := evalRepresentatives(ctx, sc, orders, groups, reps, opts); err != nil {
		span.SetError()
		return nil, RankStats{}, err
	}

	out := make([]Prediction, n)
	for g, members := range groups {
		pr := reps[g]
		for _, idx := range members {
			out[idx] = Prediction{
				Order:           append([]int(nil), orders[idx]...),
				Time:            pr.Time,
				Bandwidth:       pr.Bandwidth,
				BottleneckLevel: pr.BottleneckLevel,
				Latency:         pr.Latency,
			}
		}
	}
	mode := ModeExact
	if len(groups) < n {
		mode = ModePruned
	}
	if opts.Registry != nil {
		ml := obs.L("mode", mode)
		opts.Registry.Counter("advisor_class_misses_total", ml).AddInt(int64(len(groups)))
		opts.Registry.Counter("advisor_class_hits_total", ml).AddInt(int64(n - len(groups)))
		opts.Registry.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).
			Observe(time.Since(start).Seconds())
	}
	st := RankStats{Mode: mode, Orders: n, Classes: len(groups), Elapsed: time.Since(start)}
	if opts.OnStats != nil {
		opts.OnStats(st)
	}
	sortPredictions(out)
	return out, st, nil
}

// classGroups partitions the order indices into §3.3 equivalence classes
// by integer placement signature, preserving first-appearance order. It
// returns nil when any signature fails to compute, so Rank falls back to
// the unpruned path and Predict reports the underlying problem.
func classGroups(sc Scenario, orders [][]int) [][]int {
	// The signature only needs the components the model actually reads:
	// alltoall traffic depends on domain occupancy alone, so the ring
	// traversal is dropped and occupancy-equivalent orders merge. The
	// world tiling is required whenever every subcommunicator runs at
	// once — even for alltoall, because distinct tilings aggregate
	// different per-domain traffic (the exhaustive differential test
	// catches the collision if this is weakened).
	sigOpts := metrics.SignatureOpts{
		Ring:  sc.Coll != Alltoall,
		World: sc.Simultaneous,
	}
	byKey := make(map[string]int, len(orders))
	var groups [][]int
	var key []byte // reused: only a new class pays for its key string
	for i, sigma := range orders {
		sig, err := metrics.OrderSignature(sc.Hierarchy, sigma, sc.CommSize, sigOpts)
		if err != nil {
			return nil
		}
		key = sig.AppendKey(key[:0])
		g, ok := byKey[string(key)]
		if !ok {
			byKey[string(key)] = len(groups)
			groups = append(groups, []int{i})
			continue
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// evalRepresentatives predicts each class representative on the bounded
// worker pool, one predictor per worker, writing into reps (Order unset:
// Rank fills in each member's own).
func evalRepresentatives(ctx context.Context, sc Scenario, orders [][]int, groups [][]int, reps []Prediction, opts RankOptions) error {
	n := len(groups)
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
					pr, err := pd.predict(orders[groups[g][0]])
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
		hi := lo + chunk
		if hi > n {
			hi = n
		}
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

// sortPredictions orders predictions by bandwidth (best first), breaking
// ties by lexicographic order permutation.
func sortPredictions(ps []Prediction) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Bandwidth != ps[j].Bandwidth {
			return ps[i].Bandwidth > ps[j].Bandwidth
		}
		return perm.Less(ps[i].Order, ps[j].Order)
	})
}
