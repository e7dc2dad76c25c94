// Rank, the full ranking of all k! orders: SearchOrders' exhaustive walk
// (bnb.go) asked for every order. It predicts one member of each §3.3
// class and expands the classes, sorted by bandwidth, into their orders,
// so the answer is that of sorting every order (proven by differential
// test).

package advisor

import (
	"context"
	"errors"

	"repro/internal/obs"
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

// Rank returns all k! orders of the hierarchy ranked by predicted
// bandwidth, best first. Equal-bandwidth orders sort by lexicographic
// order permutation, so the ranking is deterministic across runs and safe
// to cache. Rank stops early and returns ctx.Err() when the context is
// cancelled. orders must be nil: Rank ranks every order. Orders of one §3.3
// equivalence class share one Predict evaluation, so on symmetric
// hierarchies the k! candidates cost a handful of evaluations.
func Rank(ctx context.Context, sc Scenario, orders [][]int, opts RankOptions) ([]Prediction, error) {
	if orders != nil {
		return nil, errors.New("advisor: Rank ranks all k! orders; orders must be nil")
	}
	all := SearchOptions{Top: int(perm.Factorial(sc.Hierarchy.Depth())), Registry: opts.Registry}
	res, err := search(ctx, sc, all, unlimited, beamWidth, progressEvery)
	if err != nil {
		return nil, err
	}
	return res.Best, nil
}
